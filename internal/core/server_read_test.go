package core_test

import (
	"context"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/verbs"
)

// leaseConf is the proto harness's default configuration, optionally with
// a short read lease so expiry tests do not wait out the 30s default.
func leaseConf(leaseMs int64) *config.Config {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	if leaseMs > 0 {
		conf.SetInt(config.KeyRDMAReadLeaseTimeout, leaseMs)
	}
	return conf
}

// ask sends one request and decodes whichever answer the responder chose:
// a descriptor manifest (rendezvous) or a response header (eager).
func (h *protoHarness) ask(req wire.DataRequest) (*wire.ReadManifest, *wire.DataResponse) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.ep.Send(ctx, req.Encode()); err != nil {
		h.t.Fatal(err)
	}
	msg, err := h.ep.Recv(ctx)
	if err != nil {
		h.t.Fatal(err)
	}
	if len(msg) > 0 && msg[0] == wire.TypeReadManifest {
		m, err := wire.DecodeReadManifest(msg)
		if err != nil {
			h.t.Fatal(err)
		}
		return m, nil
	}
	resp, err := wire.DecodeDataResponse(msg)
	if err != nil {
		h.t.Fatal(err)
	}
	return nil, resp
}

// fetchManifest sends a read-capable request and returns the descriptor
// manifest the responder must answer it with.
func (h *protoHarness) fetchManifest(req wire.DataRequest) *wire.ReadManifest {
	h.t.Helper()
	req.Flags = wire.FlagFetchRead
	m, resp := h.ask(req)
	if m == nil {
		h.t.Fatalf("expected a read manifest, got an eager response: %+v", resp)
	}
	return m
}

// readChunk pulls one manifest chunk's ranges into h.mr by one-sided
// RDMA READ and returns the assembled payload (or the first READ error).
func (h *protoHarness) readChunk(m *wire.ReadManifest, c wire.ReadChunk) ([]byte, error) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	off := 0
	for _, r := range c.Ranges {
		err := h.ep.RDMARead(ctx, verbs.SGE{MR: h.mr, Offset: off, Length: int(r.Len)}, r.Addr, m.RKey)
		if err != nil {
			return nil, err
		}
		off += int(r.Len)
	}
	return append([]byte(nil), h.mr.Bytes()[:off]...), nil
}

// TestReadManifestServesWholePartition: a read-capable request against a
// cache-resident run yields one manifest whose chunks the client READs
// directly — every record arrives intact, the responder never sends a
// per-chunk response, and the eager lease release is accepted.
func TestReadManifestServesWholePartition(t *testing.T) {
	h := newProtoHarness(t, leaseConf(0))
	info := h.seedOutput(0, 0, bigRecs(12, 10<<10))
	prefetchInto(t, h, info, 0)

	m := h.fetchManifest(h.request(0, 0, 0, 1024))
	if len(m.Chunks) == 0 {
		t.Fatal("empty manifest for a 120KB partition")
	}
	if !m.Chunks[len(m.Chunks)-1].EOF {
		t.Fatalf("manifest of %d chunks does not reach EOF", len(m.Chunks))
	}
	var payload []byte
	for i, c := range m.Chunks {
		if c.Offset != int64(len(payload)) {
			t.Fatalf("chunk %d offset %d, want %d (chunks must be contiguous)", i, c.Offset, len(payload))
		}
		got, err := h.readChunk(m, c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if len(got) != int(c.Bytes) {
			t.Fatalf("chunk %d: read %d bytes, manifest claims %d", i, len(got), c.Bytes)
		}
		payload = append(payload, got...)
	}
	recs, err := kv.DecodeAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("reassembled %d records, want 12", len(recs))
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.read.manifests") != 1 {
		t.Fatalf("manifests = %d, want 1", c.Get("shuffle.rdma.read.manifests"))
	}
	// The whole partition moved without a single eager response.
	if n := c.Get("shuffle.rdma.zerocopy.fallbacks"); n != 0 {
		t.Fatalf("responder served %d eager responses for a manifest-served partition", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.ep.Send(ctx, (&wire.LeaseRelease{LeaseID: m.LeaseID}).Encode()); err != nil {
		t.Fatal(err)
	}
}

// TestReadAfterRemoveJobServesPinnedBytes is the eviction-race contract
// (under -race): a manifest published before RemoveJob keeps its run
// pinned, so READs between removal and lease expiry return the CORRECT
// bytes — never stale or recycled memory — and once the lease expires
// the region deregisters and READs fail cleanly with a remote fault.
func TestReadAfterRemoveJobServesPinnedBytes(t *testing.T) {
	h := newProtoHarness(t, leaseConf(500))
	recs := bigRecs(10, 8<<10)
	info := h.seedOutput(0, 0, recs)
	prefetchInto(t, h, info, 0)

	m := h.fetchManifest(h.request(0, 0, 0, 1024))
	if len(m.Chunks) == 0 {
		t.Fatal("empty manifest")
	}
	// Evict: job completion removes every cache entry; the disk copy was
	// already deleted by prefetchInto, so only the lease pin remains.
	findServer(t, h).JobComplete(info)

	var payload []byte
	for i, c := range m.Chunks {
		got, err := h.readChunk(m, c)
		if err != nil {
			t.Fatalf("chunk %d after RemoveJob: %v (lease must pin evicted bytes)", i, err)
		}
		payload = append(payload, got...)
	}
	decoded, err := kv.DecodeAll(payload)
	if err != nil {
		t.Fatalf("stale bytes after eviction: %v", err)
	}
	if len(decoded) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(recs))
	}

	// Lease expiry is the pin's deadline: the janitor drops the last
	// reference, the region deregisters, and the same READ now faults.
	waitUntil(t, func() bool {
		return h.cluster.Counters().Get("shuffle.rdma.read.lease.expired") >= 1
	})
	if _, err := h.readChunk(m, m.Chunks[0]); err == nil {
		t.Fatal("READ against an expired lease of an evicted entry succeeded")
	}
}

// TestReadManifestColdPartitionFallsBack: a read-capable request for an
// uncached partition is answered eagerly (a DataResponse, not a manifest)
// with correct bytes — the protocol's one degrade rung.
func TestReadManifestColdPartitionFallsBack(t *testing.T) {
	h := newProtoHarness(t, leaseConf(0))
	h.seedOutput(0, 0, bigRecs(3, 1024))

	req := h.request(0, 0, 0, 1024)
	req.Flags = wire.FlagFetchRead
	resp := h.roundTrip(req)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	recs, err := kv.DecodeAll(h.mr.Bytes()[:resp.Bytes])
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if h.cluster.Counters().Get("shuffle.rdma.read.manifests") != 0 {
		t.Fatal("cold partition produced a manifest")
	}
}

// TestReadManifestFlagGated: without FlagFetchRead the responder never
// sends a manifest — a copier re-issuing after a faulted READ (noRead)
// must get the bytes eagerly.
func TestReadManifestFlagGated(t *testing.T) {
	h := newProtoHarness(t, leaseConf(0))
	info := h.seedOutput(0, 0, bigRecs(4, 2048))
	prefetchInto(t, h, info, 0)

	resp := h.roundTrip(h.request(0, 0, 0, 1024)) // Flags zero
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.Records != 4 || !resp.EOF {
		t.Fatalf("resp: %+v", resp)
	}
	if h.cluster.Counters().Get("shuffle.rdma.read.manifests") != 0 {
		t.Fatal("responder sent a manifest to a copier that never asked for one")
	}
}

// TestReadManifestBudget: a partition needing more chunks than one
// manifest may carry must split across manifests — each within the
// pooled 4096-byte header budget — with re-requests at the next
// uncovered offset walking the rest of the partition.
func TestReadManifestBudget(t *testing.T) {
	h := newProtoHarness(t, leaseConf(0))
	recs := bigRecs(600, 64) // hundreds of tiny records → many chunks
	info := h.seedOutput(0, 0, recs)
	prefetchInto(t, h, info, 0)

	var payload []byte
	offset := int64(0)
	manifests := 0
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("no EOF after 100 manifests")
		}
		req := h.request(0, 0, offset, 1) // one record per chunk → 600 chunks
		m := h.fetchManifest(req)
		manifests++
		if sz := m.EncodedSize(); sz > 4096 {
			t.Fatalf("manifest %d encodes to %d bytes, over the header budget", i, sz)
		}
		eof := false
		for _, c := range m.Chunks {
			if c.Records != 1 {
				t.Fatalf("manifest %d: chunk packed %d records, MaxRecords=1", i, c.Records)
			}
			got, err := h.readChunk(m, c)
			if err != nil {
				t.Fatal(err)
			}
			payload = append(payload, got...)
			offset = c.Offset + int64(c.Bytes)
			eof = c.EOF
		}
		if eof {
			break
		}
	}
	if manifests < 2 {
		t.Fatalf("%d manifests for 600 single-record chunks; plan splitting never engaged", manifests)
	}
	decoded, err := kv.DecodeAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(recs))
	}
}

// TestResponderDecidesPerRequest is the fetch protocol's whole rule, one
// row per input the responder can observe: a manifest exactly when the
// request is read-capable and the run is cache-resident and registered;
// an eager response (staging copy + RDMA write + header) otherwise.
func TestResponderDecidesPerRequest(t *testing.T) {
	smallSlabs := func() *config.Config {
		// 64 KiB slabs, so the 80 KB run below needs a slab of its own,
		// and 4 KiB packets, so a staged chunk does not.
		conf := leaseConf(0)
		conf.SetInt(config.KeyRDMAMRSlabBytes, 64<<10)
		conf.SetInt(config.KeyRDMAPacketBytes, 4096)
		return conf
	}
	cachingOff := func() *config.Config { return zcConf(false) }
	for _, tc := range []struct {
		name         string
		conf         func() *config.Config
		resident     bool
		squeeze      bool // freeze the MR budget before the run is cached
		flags        uint32
		wantManifest bool
		wantDisk     bool // the eager response read the run from disk
	}{
		{name: "resident registered read-capable", resident: true, flags: wire.FlagFetchRead, wantManifest: true},
		{name: "resident noRead", resident: true},
		{name: "cold read-capable", flags: wire.FlagFetchRead, wantDisk: true},
		{name: "resident unregistered under a squeezed budget", conf: smallSlabs, resident: true, squeeze: true, flags: wire.FlagFetchRead},
		{name: "caching off", conf: cachingOff, flags: wire.FlagFetchRead, wantDisk: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conf *config.Config
			if tc.conf != nil {
				conf = tc.conf()
			}
			h := newProtoHarness(t, conf)
			recs := bigRecs(10, 8<<10)
			info := h.seedOutput(0, 0, recs)
			c := h.cluster.Counters()
			if tc.squeeze {
				// Serve and re-cache a small partition first so header,
				// staging and cache slabs exist, then pin
				// mapred.rdma.mr.budget.bytes at what is registered: the
				// 80 KB run fits no free span and no new slab may be
				// carved, so it caches on the heap, unregistered.
				h.seedOutput(1, 0, bigRecs(1, 512))
				if resp := h.roundTrip(h.request(1, 0, 0, 16)); resp.Err != "" {
					t.Fatal(resp.Err)
				}
				waitUntil(t, func() bool { return c.Get("cache.prefetched") > 0 })
				pool := mrpool.For(h.cluster.Trackers()[0].Device())
				pool.Configure(pool.PinnedBytes(), 64<<10)
			}
			if tc.resident {
				cached, failures := c.Get("cache.prefetched"), c.Get("mr.slab.failures")
				findServer(t, h).MapOutputReady(info, 0)
				waitUntil(t, func() bool { return c.Get("cache.prefetched") > cached })
				if unregistered := c.Get("mr.slab.failures") > failures; unregistered != tc.squeeze {
					t.Fatalf("run cached unregistered = %v, want %v", unregistered, tc.squeeze)
				}
			}
			before := c.Snapshot()
			delta := func(name string) int64 { return c.Get(name) - before[name] }

			req := h.request(0, 0, 0, 1024)
			req.Flags = tc.flags
			m, resp := h.ask(req)
			if tc.wantManifest {
				if m == nil {
					t.Fatalf("eager response %+v, want a manifest", resp)
				}
				got, err := h.readChunk(m, m.Chunks[0])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := kv.DecodeAll(got); err != nil || len(got) != int(m.Chunks[0].Bytes) {
					t.Fatalf("READ %d bytes of a %d-byte chunk, decode: %v", len(got), m.Chunks[0].Bytes, err)
				}
				if delta("shuffle.rdma.zerocopy.fallbacks") != 0 || delta("tracker.mapoutput.disk.reads") != 0 {
					t.Fatal("a manifest-served request also paid for an eager response")
				}
				return
			}
			if m != nil {
				t.Fatalf("manifest of %d chunks, want an eager response", len(m.Chunks))
			}
			if resp.Err != "" || resp.Bytes == 0 {
				t.Fatalf("resp: %+v", resp)
			}
			if _, err := kv.DecodeAll(h.mr.Bytes()[:resp.Bytes]); err != nil {
				t.Fatalf("eager payload: %v", err)
			}
			if delta("shuffle.rdma.read.manifests") != 0 {
				t.Fatal("manifest counted for an eager response")
			}
			if got := delta("tracker.mapoutput.disk.reads") > 0; got != tc.wantDisk {
				t.Fatalf("disk reads grew by %d, want from disk = %v", delta("tracker.mapoutput.disk.reads"), tc.wantDisk)
			}
			cacheOn := h.cluster.Trackers()[0].Conf().Bool(config.KeyCachingEnabled)
			if got := delta("shuffle.rdma.zerocopy.fallbacks"); (got == 1) != cacheOn {
				t.Fatalf("zerocopy.fallbacks grew by %d with caching on = %v", got, cacheOn)
			}
			switch {
			case tc.resident:
				if delta("cache.hits") == 0 || delta("cache.misses") != 0 {
					t.Fatalf("resident run: cache.hits +%d, cache.misses +%d", delta("cache.hits"), delta("cache.misses"))
				}
			case cacheOn:
				// The miss is served from disk without waiting, then
				// re-cached on demand.
				if delta("cache.misses") != 1 {
					t.Fatalf("cold run: cache.misses +%d, want 1", delta("cache.misses"))
				}
				waitUntil(t, func() bool { return delta("cache.prefetched") > 0 })
			default:
				if delta("cache.hits") != 0 || delta("cache.misses") != 0 {
					t.Fatal("cache consulted with caching off")
				}
			}
			assertStagesReleased(t, c.Get)
		})
	}
}
