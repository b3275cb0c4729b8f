package core_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/wire"
)

// zcConf returns the proto harness configuration with the cache — and
// with it the only way a chunk moves without a responder copy — on or off.
func zcConf(caching bool) *config.Config {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetBool(config.KeyCachingEnabled, caching)
	return conf
}

// bigRecs builds n records of roughly size bytes each, so one packet
// spans several scatter-gather ranges.
func bigRecs(n, size int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Value: bytes.Repeat([]byte{byte('A' + i%26)}, size),
		}
	}
	return recs
}

// prefetchInto announces mapID and waits for the cache to hold it, then
// deletes the disk copy so subsequent serving can only come from cache.
func prefetchInto(t testing.TB, h *protoHarness, info mapred.JobInfo, mapID int) {
	t.Helper()
	srv := findServer(t, h)
	srv.MapOutputReady(info, mapID)
	waitUntil(t, func() bool { return h.cluster.Counters().Get("cache.prefetched") > 0 })
	tt := h.cluster.Trackers()[0]
	_ = tt.Store().Delete(mapred.MapOutputKey(info.ID, mapID, 0))
}

// assertStagesReleased fails if any staging region is alive: the
// responder frees one as soon as its RDMA write returns, before the
// header that ends the round trip is sent, so none outlives an answer.
func assertStagesReleased(t testing.TB, get func(string) int64) {
	t.Helper()
	if n := get("shuffle.rdma.stage.outstanding"); n != 0 {
		t.Fatalf("%d staging regions leaked", n)
	}
}

// TestZeroCopyServesCacheHitWithoutStaging: a cache-resident partition is
// walked to EOF, read-capable, in small chunks — every answer is a
// manifest, the client READs the bytes out of cache memory itself, and
// the responder stages nothing.
func TestZeroCopyServesCacheHitWithoutStaging(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	info := h.seedOutput(0, 0, bigRecs(12, 10<<10))
	prefetchInto(t, h, info, 0)

	got, _ := manifestWalk(t, h, 2)
	recs, err := kv.DecodeAll(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("reassembled %d records, want 12", len(recs))
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.read.manifests") == 0 {
		t.Fatal("cache-resident partition not served by manifest")
	}
	if n := c.Get("shuffle.rdma.zerocopy.fallbacks"); n != 0 {
		t.Fatalf("%d eager responses for a cache-resident partition", n)
	}
	if n := c.Get("shuffle.rdma.stage.outstanding"); n != 0 {
		t.Fatalf("%d staging regions outstanding though nothing was staged", n)
	}
}

func TestZeroCopyColdPartitionFallsBackToStaging(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	h.seedOutput(0, 0, bigRecs(3, 1024))
	// First request is cold: nothing cached yet, so the responder must
	// answer eagerly through the staging copy and count a fallback — and
	// still serve correct bytes.
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
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.zerocopy.fallbacks") == 0 {
		t.Fatal("cold-partition fallback not counted")
	}
	assertStagesReleased(t, c.Get)
}

// TestZeroCopyDisabledNeverTakesZeroCopyPath: with caching off nothing is
// registered for READ, so even a read-capable request for a partition the
// tracker was told about is staged and written.
func TestZeroCopyDisabledNeverTakesZeroCopyPath(t *testing.T) {
	h := newProtoHarness(t, zcConf(false))
	info := h.seedOutput(0, 0, bigRecs(6, 2048))
	findServer(t, h).MapOutputReady(info, 0)
	req := h.request(0, 0, 0, 1024)
	req.Flags = wire.FlagFetchRead
	resp := h.roundTrip(req)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.read.manifests") != 0 || c.Get("cache.inserted") != 0 {
		t.Fatal("caching off, yet a run was cached or advertised for READ")
	}
	if c.Get("shuffle.rdma.zerocopy.fallbacks") != 0 {
		t.Fatal("an eager response with caching off counted as a zero-copy fallback")
	}
	assertStagesReleased(t, c.Get)
}

// chunkWalk fetches a whole partition with the given per-packet record
// cap, returning the concatenated payload plus the exact chunk boundary
// sequence.
func chunkWalk(t *testing.T, h *protoHarness, maxRecords int32) ([]byte, []string) {
	t.Helper()
	var payload []byte
	var chunks []string
	offset := int64(0)
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("no EOF")
		}
		resp := h.roundTrip(h.request(0, 0, offset, maxRecords))
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		chunks = append(chunks, fmt.Sprintf("bytes=%d records=%d eof=%v", resp.Bytes, resp.Records, resp.EOF))
		payload = append(payload, h.mr.Bytes()[:resp.Bytes]...)
		offset += int64(resp.Bytes)
		if resp.EOF {
			return payload, chunks
		}
	}
}

// manifestWalk is chunkWalk for a read-capable client: it follows
// whichever answer the responder gives — READing every chunk of a
// manifest, or taking an eager response's payload — to EOF, returning
// the concatenated payload plus the exact chunk boundary sequence.
func manifestWalk(t *testing.T, h *protoHarness, maxRecords int32) ([]byte, []string) {
	t.Helper()
	var payload []byte
	var chunks []string
	note := func(n, records int32, eof bool) {
		chunks = append(chunks, fmt.Sprintf("bytes=%d records=%d eof=%v", n, records, eof))
	}
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("no EOF")
		}
		req := h.request(0, 0, int64(len(payload)), maxRecords)
		req.Flags = wire.FlagFetchRead
		m, resp := h.ask(req)
		if m == nil {
			if resp.Err != "" {
				t.Fatal(resp.Err)
			}
			note(resp.Bytes, resp.Records, resp.EOF)
			payload = append(payload, h.mr.Bytes()[:resp.Bytes]...)
			if resp.EOF {
				return payload, chunks
			}
			continue
		}
		eof := false
		for _, c := range m.Chunks {
			got, err := h.readChunk(m, c)
			if err != nil {
				// Lease gone under us (eviction churn): what a copier
				// re-issues noRead, the walk simply asks for again.
				break
			}
			note(c.Bytes, c.Records, c.EOF)
			payload = append(payload, got...)
			eof = c.EOF
		}
		// Retire the plan as a copier does, so the pin drops now rather
		// than at the lease deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := h.ep.Send(ctx, (&wire.LeaseRelease{LeaseID: m.LeaseID}).Encode())
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if eof {
			return payload, chunks
		}
	}
}

// TestZeroCopyBitForBitWithLegacy: the rendezvous and eager halves of the
// protocol produce byte-identical payload streams with identical chunk
// boundaries — a cache-resident partition walked by manifest + READ
// against the same partition staged and written, both from the cache
// (not read-capable) and from disk (caching off).
func TestZeroCopyBitForBitWithLegacy(t *testing.T) {
	recs := bigRecs(20, 9000)
	harness := func(caching bool) *protoHarness {
		h := newProtoHarness(t, zcConf(caching))
		info := h.seedOutput(0, 0, recs)
		if caching {
			prefetchInto(t, h, info, 0)
		}
		return h
	}
	warm := harness(true)
	rdBytes, rdChunks := manifestWalk(t, warm, 7)
	if warm.cluster.Counters().Get("shuffle.rdma.zerocopy.fallbacks") != 0 {
		t.Fatal("the manifest walk was served eagerly")
	}
	for name, walk := range map[string]func() ([]byte, []string){
		"eager from cache": func() ([]byte, []string) { return chunkWalk(t, warm, 7) },
		"eager from disk":  func() ([]byte, []string) { return chunkWalk(t, harness(false), 7) },
	} {
		stBytes, stChunks := walk()
		if !bytes.Equal(rdBytes, stBytes) {
			t.Fatalf("%s: payload streams differ (%d vs %d bytes)", name, len(rdBytes), len(stBytes))
		}
		if !slices.Equal(rdChunks, stChunks) {
			t.Fatalf("%s: chunk boundaries differ: %v vs %v", name, rdChunks, stChunks)
		}
	}
}

// TestZeroCopyJobRemovalDuringWalk races cache teardown (JobComplete →
// RemoveJob) against an in-progress read-capable chunk walk: every chunk
// must still decode, because a manifest's lease keeps evicted bytes
// registered until it is released, a READ against a lease that is gone
// faults cleanly, and de-cached partitions are served eagerly from disk.
func TestZeroCopyJobRemovalDuringWalk(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	info := h.seedOutput(0, 0, bigRecs(30, 4000))
	srv := findServer(t, h)
	srv.MapOutputReady(info, 0)
	waitUntil(t, func() bool { return h.cluster.Counters().Get("cache.prefetched") > 0 })

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				srv.JobComplete(info)
				srv.MapOutputReady(info, 0)
			}
		}
	}()
	for round := 0; round < 5; round++ {
		payload, _ := manifestWalk(t, h, 5)
		recs, err := kv.DecodeAll(payload)
		if err != nil {
			t.Fatalf("round %d: corrupt payload under cache churn: %v", round, err)
		}
		if len(recs) != 30 {
			t.Fatalf("round %d: %d records", round, len(recs))
		}
	}
	close(done)
	wg.Wait()
	assertStagesReleased(t, h.cluster.Counters().Get)
}
