package core_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// protoHarness stands up one tracker server plus a raw UCR client
// speaking the wire protocol directly — no reduce-side machinery — so
// the request/response contract can be probed including error paths.
type protoHarness struct {
	t       testing.TB
	cluster *mapred.Cluster
	ep      *ucr.EndPoint
	mr      *verbs.MemoryRegion
	jobID   string
}

func newProtoHarness(t testing.TB, conf *config.Config) *protoHarness {
	t.Helper()
	return newProtoHarnessOn(t, core.New(), conf)
}

// newProtoHarnessOn is newProtoHarness with the trackers serving under e's
// policy.
func newProtoHarnessOn(t testing.TB, e *core.Engine, conf *config.Config) *protoHarness {
	t.Helper()
	if conf == nil {
		conf = config.New()
		conf.SetInt(config.KeyBlockSize, 64<<10)
	}
	cluster, err := mapred.NewCluster(2, conf, e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)

	// A raw client device joining the cluster's fabric.
	fab := cluster.Trackers()[0].Fabric()
	dev, err := fab.NewDevice("raw-client")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	ep, err := fab.Connect(ctx, dev, "node0", core.ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	mr, err := dev.RegisterMemory(make([]byte, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	return &protoHarness{t: t, cluster: cluster, ep: ep, mr: mr}
}

// seedOutput plants a map output partition directly in node0's store and
// announces it.
func (h *protoHarness) seedOutput(mapID, partition int, recs []kv.Record) mapred.JobInfo {
	h.t.Helper()
	tt := h.cluster.Trackers()[0]
	info := mapred.JobInfo{
		ID: "job_proto", Conf: h.cluster.Conf(), Comparator: kv.BytesComparator,
		NumMaps: mapID + 1, NumReduces: partition + 1,
	}
	h.jobID = info.ID
	tt.Store().Overwrite(mapred.MapOutputKey(info.ID, mapID, partition), kv.WriteRun(recs))
	return info
}

func (h *protoHarness) roundTrip(req wire.DataRequest) *wire.DataResponse {
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
	resp, err := wire.DecodeDataResponse(msg)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp
}

func (h *protoHarness) request(mapID, partition int, offset int64, maxRecords int32) wire.DataRequest {
	return wire.DataRequest{
		JobID: h.jobID, MapID: int32(mapID), ReduceID: int32(partition),
		Offset: offset, MaxBytes: int32(h.mr.Len()), MaxRecords: maxRecords,
		RemoteAddr: h.mr.Addr(), RKey: h.mr.RKey(),
	}
}

func TestProtocolSingleChunk(t *testing.T) {
	h := newProtoHarness(t, nil)
	recs := []kv.Record{
		{Key: []byte("alpha"), Value: []byte("1")},
		{Key: []byte("beta"), Value: []byte("2")},
	}
	h.seedOutput(0, 0, recs)
	resp := h.roundTrip(h.request(0, 0, 0, 1024))
	if resp.Err != "" {
		t.Fatalf("err: %s", resp.Err)
	}
	if resp.Records != 2 || !resp.EOF {
		t.Fatalf("resp: %+v", resp)
	}
	// Payload was RDMA-written into our buffer before the header came.
	got, err := kv.DecodeAll(h.mr.Bytes()[:resp.Bytes])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0].Key, []byte("alpha")) {
		t.Fatalf("payload: %v", got)
	}
}

func TestProtocolChunkWalk(t *testing.T) {
	h := newProtoHarness(t, nil)
	var recs []kv.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, kv.Record{Key: []byte{byte('a' + i)}, Value: bytes.Repeat([]byte{byte(i)}, 50)})
	}
	h.seedOutput(0, 0, recs)
	var all []kv.Record
	offset := int64(0)
	for i := 0; ; i++ {
		if i > 20 {
			t.Fatal("no EOF after 20 chunks")
		}
		resp := h.roundTrip(h.request(0, 0, offset, 3)) // ≤3 records per packet
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if resp.Records > 3 {
			t.Fatalf("packet exceeded MaxRecords: %+v", resp)
		}
		got, err := kv.DecodeAll(h.mr.Bytes()[:resp.Bytes])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			all = append(all, r.Clone())
		}
		offset = resp.Offset + int64(resp.Bytes)
		if resp.EOF {
			break
		}
	}
	if len(all) != 10 {
		t.Fatalf("reassembled %d records", len(all))
	}
	for i, r := range all {
		if r.Key[0] != byte('a'+i) {
			t.Fatalf("record %d out of order: %q", i, r.Key)
		}
	}
}

func TestProtocolUnknownMapErrors(t *testing.T) {
	h := newProtoHarness(t, nil)
	h.seedOutput(0, 0, []kv.Record{{Key: []byte("k")}})
	resp := h.roundTrip(h.request(7, 0, 0, 16)) // map 7 never ran
	if resp.Err == "" {
		t.Fatal("unknown map served")
	}
	if resp.Bytes != 0 || resp.Records != 0 {
		t.Fatalf("error response carried payload: %+v", resp)
	}
}

func TestProtocolBadOffsetErrors(t *testing.T) {
	h := newProtoHarness(t, nil)
	h.seedOutput(0, 0, []kv.Record{{Key: []byte("k"), Value: []byte("v")}})
	resp := h.roundTrip(h.request(0, 0, 1<<40, 16))
	if resp.Err == "" {
		t.Fatal("absurd offset accepted")
	}
}

func TestProtocolBadRKeyReported(t *testing.T) {
	h := newProtoHarness(t, nil)
	h.seedOutput(0, 0, []kv.Record{{Key: []byte("k"), Value: []byte("v")}})
	req := h.request(0, 0, 0, 16)
	req.RKey++ // sabotage the RDMA target
	resp := h.roundTrip(req)
	if resp.Err == "" {
		t.Fatal("RDMA write failure not reported")
	}
}

func TestProtocolMalformedRequestIgnored(t *testing.T) {
	h := newProtoHarness(t, nil)
	info := h.seedOutput(0, 0, []kv.Record{{Key: []byte("k")}})
	_ = info
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.ep.Send(ctx, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	// Server must survive garbage and keep serving.
	resp := h.roundTrip(h.request(0, 0, 0, 16))
	if resp.Err != "" {
		t.Fatalf("server wedged after garbage: %s", resp.Err)
	}
	if h.cluster.Counters().Get("shuffle.rdma.bad.requests") == 0 {
		t.Fatal("bad request not counted")
	}
}

func TestProtocolEmptyPartition(t *testing.T) {
	h := newProtoHarness(t, nil)
	h.seedOutput(0, 0, nil)
	resp := h.roundTrip(h.request(0, 0, 0, 16))
	if resp.Err != "" || !resp.EOF || resp.Records != 0 || resp.Bytes != 0 {
		t.Fatalf("empty partition: %+v", resp)
	}
}

func TestProtocolCacheServesAfterAnnounce(t *testing.T) {
	h := newProtoHarness(t, nil)
	recs := []kv.Record{{Key: []byte("cached"), Value: []byte("yes")}}
	info := h.seedOutput(3, 0, recs)
	// Announce so the prefetcher caches, then delete the disk copy: a
	// subsequent request can only succeed from the PrefetchCache.
	srv := findServer(t, h)
	srv.MapOutputReady(info, 3)
	waitUntil(t, func() bool { return h.cluster.Counters().Get("cache.prefetched") > 0 })
	tt := h.cluster.Trackers()[0]
	_ = tt.Store().Delete(mapred.MapOutputKey(info.ID, 3, 0))

	resp := h.roundTrip(h.request(3, 0, 0, 16))
	if resp.Err != "" {
		t.Fatalf("cache did not serve after disk loss: %s", resp.Err)
	}
	if resp.Records != 1 {
		t.Fatalf("resp: %+v", resp)
	}
	if h.cluster.Counters().Get("cache.hits") == 0 {
		t.Fatal("no cache hit recorded")
	}
}

// TestDemandMissReadsStoreOnce: a request that misses the cache reads the
// partition from disk once, and the demand re-cache caches that same run
// instead of reading the disk a second time — so the next request hits,
// and the partition has cost exactly one tracker.mapoutput.disk.reads.
func TestDemandMissReadsStoreOnce(t *testing.T) {
	h := newProtoHarness(t, nil)
	h.seedOutput(0, 0, []kv.Record{{Key: []byte("k"), Value: []byte("v")}})
	c := h.cluster.Counters()
	for i := 0; i < 2; i++ {
		if resp := h.roundTrip(h.request(0, 0, 0, 16)); resp.Err != "" || resp.Records != 1 {
			t.Fatalf("request %d: %+v", i, resp)
		}
		if i == 0 {
			waitUntil(t, func() bool { return c.Get("cache.prefetched") == 1 })
		}
	}
	if reads := c.Get("tracker.mapoutput.disk.reads"); reads != 1 {
		t.Fatalf("tracker.mapoutput.disk.reads = %d for a miss, its re-cache and a hit, want 1", reads)
	}
	if hits, misses := c.Get("cache.hits"), c.Get("cache.misses"); hits != 1 || misses != 1 {
		t.Fatalf("cache.hits = %d, cache.misses = %d, want 1 and 1", hits, misses)
	}
}

// TestResponderMissAllocBudget: a request the cache cannot answer reads the
// partition from the tracker's disk in place, however far into it the
// packet starts — the packet is staged from the stored run. On OSU-IB the
// demand re-cache that follows copies that same run once, into the
// cache's registered block, without reading the disk again; Hadoop-A has
// no cache and reads the partition again for every packet. Neither puts
// a partition-sized object on the heap.
func TestResponderMissAllocBudget(t *testing.T) {
	recs := make([]kv.Record, 10000)
	for i := range recs {
		recs[i] = kv.Record{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: bytes.Repeat([]byte{byte(i)}, 90)}
	}
	body, _, err := kv.RunBody(kv.WriteRun(recs))
	if err != nil {
		t.Fatal(err)
	}
	recBytes, err := kv.NextRecordSize(body) // every record encodes to the same size
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		engine  *core.Engine
		recache bool // a miss queues a demand re-cache of the run it read
	}{
		{"osu-ib-rdma", core.New(), true},
		{"hadoop-a", core.NewHadoopA(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newProtoHarnessOn(t, tc.engine, nil)
			counters := h.cluster.Counters()
			wantReads, wantMisses := int64(1), int64(0)
			if tc.recache {
				wantMisses = 4
			}
			// The first miss is the warm-up: it makes the pool carve its slab.
			var allocated []uint64
			for m := 0; m < 4; m++ {
				h.seedOutput(m, 0, recs)
				offset := int64(m * 2500 * recBytes)
				cached, reads := counters.Get("cache.prefetched"), counters.Get("tracker.mapoutput.disk.reads")
				allocated = append(allocated, alloctest.Bytes(1, func() {
					if resp := h.roundTrip(h.request(m, 0, offset, 1<<20)); resp.Err != "" || resp.Bytes == 0 {
						t.Fatalf("resp: %+v", resp)
					}
					if tc.recache {
						waitUntil(t, func() bool { return counters.Get("cache.prefetched") > cached })
					}
				}))
				if got := counters.Get("tracker.mapoutput.disk.reads") - reads; got != wantReads {
					t.Fatalf("map %d: %d disk reads for one packet, want %d", m, got, wantReads)
				}
			}
			size, err := h.cluster.Trackers()[0].MapOutputSize(h.jobID, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("allocated per miss: %v (partition %d bytes)", allocated, size)
			if least := slices.Min(allocated[1:]); least > uint64(size)/4 {
				t.Errorf("a miss on a %d-byte partition allocated %d bytes (runs: %v), budget %d", size, least, allocated, size/4)
			}
			if misses := counters.Get("cache.misses"); misses != wantMisses {
				t.Fatalf("cache.misses = %d, want %d", misses, wantMisses)
			}
		})
	}
}

// findServer returns node0's shuffle server (the cluster exposes them
// index-aligned with Trackers for diagnostics).
func findServer(t testing.TB, h *protoHarness) mapred.TrackerServer {
	t.Helper()
	return h.cluster.Servers()[0]
}

func waitUntil(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
