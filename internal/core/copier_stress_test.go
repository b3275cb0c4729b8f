package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/fabric"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
)

// ringHarness drives a fetcher directly against one live tracker server:
// many segments multiplexed over a single host connection, which is the
// worst case for the bounce-buffer ring (every slot contended, responses
// completing out of order across segments).
type ringHarness struct {
	t        testing.TB
	cluster  *mapred.Cluster
	tt       *mapred.TaskTracker
	job      mapred.JobInfo
	numMaps  int
	expected []kv.Record // sorted union of every partition-0 record
	// recoverMap, when set, is fetch's RecoverMap.
	recoverMap func(ctx context.Context, mapID, attempt int) (string, error)
}

func newRingHarness(t testing.TB, conf *config.Config, numMaps, recsPerMap int) *ringHarness {
	t.Helper()
	return newRingHarnessOn(t, New(), conf, numMaps, recsPerMap)
}

// newRingHarnessOn is newRingHarness with the tracker serving under e's
// policy.
func newRingHarnessOn(t testing.TB, e *Engine, conf *config.Config, numMaps, recsPerMap int) *ringHarness {
	t.Helper()
	cluster, err := mapred.NewCluster(1, conf, e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	tt := cluster.Trackers()[0]
	job := mapred.JobInfo{
		ID: "job_ring", Conf: cluster.Conf(), Comparator: kv.BytesComparator,
		NumMaps: numMaps, NumReduces: 1,
	}
	h := &ringHarness{t: t, cluster: cluster, tt: tt, job: job, numMaps: numMaps}
	for m := 0; m < numMaps; m++ {
		h.plant(m, recsPerMap)
	}
	return h
}

// plant stores n records as map m's partition 0 and folds them into the
// expected stream; keys are unique across maps, so one sort orders it.
func (h *ringHarness) plant(m, n int) {
	recs := make([]kv.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, kv.Record{
			Key:   []byte(fmt.Sprintf("k%05d-m%03d", i, m)),
			Value: bytes.Repeat([]byte{byte(m), byte(i)}, 32),
		})
	}
	h.tt.Store().Overwrite(mapred.MapOutputKey(h.job.ID, m, 0), kv.WriteRun(recs))
	h.expected = append(h.expected, recs...)
	sort.Slice(h.expected, func(i, j int) bool {
		return bytes.Compare(h.expected[i].Key, h.expected[j].Key) < 0
	})
}

// fetch runs one full fetcher lifetime and verifies the merged stream is
// exactly the sorted union, comparing records in place (the iterator
// contract: a record is valid only until the following Next).
func (h *ringHarness) fetch(ctx context.Context) { h.fetchThen(ctx, nil) }

// fetchThen is fetch calling started, when set, between Fetch and the
// first Next.
func (h *ringHarness) fetchThen(ctx context.Context, started func(*fetcher)) {
	events := make(chan mapred.MapEvent, h.numMaps)
	for m := 0; m < h.numMaps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: h.tt.Host()}
	}
	close(events)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()}, RecoverMap: h.recoverMap,
	})
	defer f.Close()
	it, err := f.Fetch(ctx)
	if err != nil {
		h.t.Fatal(err)
	}
	if started != nil {
		started(f)
	}
	n := 0
	for it.Next() {
		rec := it.Record()
		if n >= len(h.expected) {
			h.t.Fatalf("more than %d records merged", len(h.expected))
		}
		want := h.expected[n]
		if !bytes.Equal(rec.Key, want.Key) || !bytes.Equal(rec.Value, want.Value) {
			h.t.Fatalf("record %d = %q/%x, want %q/%x (released-buffer poison shows as 0xdb)",
				n, rec.Key, rec.Value, want.Key, want.Value)
		}
		n++
	}
	if err := it.Err(); err != nil {
		h.t.Fatal(err)
	}
	if n != len(h.expected) {
		h.t.Fatalf("merged %d records, want %d", n, len(h.expected))
	}
}

func stressConf(depth int64) *config.Config {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetBool(config.KeyRDMAEnabled, true)
	conf.SetInt(config.KeyRDMAPacketBytes, 2048) // many chunks per segment
	conf.SetInt(config.KeyKVPairsPerPacket, 16)
	conf.SetInt(config.KeyRDMAOutstandingPerConn, depth)
	return conf
}

// TestRingStressManySegmentsOneHost is the ring's race gauntlet: 32
// segments share one 8-slot connection under an amplified verbs timing
// model, with released payload buffers poisoned so any record that
// outlives its chunk's pool release turns into visible corruption. Run
// under -race this exercises sendLoop/recvLoop/merge/consumer
// concurrency end to end.
func TestRingStressManySegmentsOneHost(t *testing.T) {
	poisonReleasedPayloads.Store(true)
	defer poisonReleasedPayloads.Store(false)

	h := newRingHarness(t, stressConf(8), 32, 100)
	// Amplify modeled verbs latency into real sleeps (delay = modeled /
	// scale, so 0.05 = 20×) to open the out-of-order completion windows.
	h.tt.Fabric().Network().SetLatencyModel(fabric.Models(fabric.IBVerbs), 0.05)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	h.fetch(ctx)

	c := h.tt.Counters()
	if peak := c.Get("shuffle.rdma.outstanding.peak"); peak < 2 {
		t.Fatalf("outstanding peak = %d; the ring never pipelined", peak)
	}
	if c.Get("shuffle.rdma.payload.pool.hits") == 0 {
		t.Fatal("payload pool never hit: chunks are not being recycled")
	}

	// A second fetcher lifetime on the same device must carve its ring out
	// of the already-registered slabs — the slab free list is the reuse
	// mechanism that replaced the old per-ring registration pool — and
	// leave the accountant's books where it found them.
	pool := mrpool.For(h.tt.Device())
	pinned := pool.PinnedBytes()
	outstanding := pool.OutstandingBlocks()
	h.fetch(ctx)
	if got := pool.PinnedBytes(); got != pinned {
		t.Fatalf("second fetcher lifetime grew pinned slab bytes %d -> %d: free-list reuse broken", pinned, got)
	}
	if got := pool.OutstandingBlocks(); got != outstanding {
		t.Fatalf("second fetcher lifetime leaked blocks: %d -> %d outstanding", outstanding, got)
	}
}

// TestRingDepthOneLockstep pins the depth-1 degenerate case: a one-slot
// ring reproduces the old request→wait→copy copier and must stay correct
// (peak outstanding exactly 1).
func TestRingDepthOneLockstep(t *testing.T) {
	poisonReleasedPayloads.Store(true)
	defer poisonReleasedPayloads.Store(false)

	h := newRingHarness(t, stressConf(1), 8, 60)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx)
	if peak := h.tt.Counters().Get("shuffle.rdma.outstanding.peak"); peak != 1 {
		t.Fatalf("depth-1 ring reached %d outstanding", peak)
	}
}

// TestRingDefaultDepthFollowsParallelCopies: with the depth key at its 0
// default, the ring sizes itself from mapred.reduce.parallel.copies —
// the knob that was dead on the RDMA path before.
func TestRingDefaultDepthFollowsParallelCopies(t *testing.T) {
	conf := stressConf(0)
	conf.SetInt(config.KeyParallelCopies, 3)
	h := newRingHarness(t, conf, 4, 20)
	events := make(chan mapred.MapEvent)
	close(events)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: nil,
	})
	defer f.Close()
	if f.depth != 3 {
		t.Fatalf("depth = %d, want 3 (from %s)", f.depth, config.KeyParallelCopies)
	}
}

// BenchmarkFetchChunkAllocs measures the steady-state allocation cost of
// the chunk path. The payload pool plus the registered-ring pool should
// amortize per-chunk allocations to ~0 once warm: allocs/op is dominated
// by fixed per-fetcher setup, and the reported allocs/chunk metric stays
// well below one allocation per delivered packet.
func BenchmarkFetchChunkAllocs(b *testing.B) {
	h := newRingHarness(b, stressConf(4), 8, 200)
	ctx := context.Background()
	h.fetch(ctx) // warm the payload and ring pools
	chunks := h.tt.Counters().Get("shuffle.rdma.packets")
	misses := h.tt.Counters().Get("shuffle.rdma.payload.pool.misses")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.fetch(ctx)
	}
	b.StopTimer()
	totalChunks := h.tt.Counters().Get("shuffle.rdma.packets") - chunks
	totalMisses := h.tt.Counters().Get("shuffle.rdma.payload.pool.misses") - misses
	if b.N > 0 && totalChunks > 0 {
		b.ReportMetric(float64(totalChunks)/float64(b.N), "chunks/op")
		// The headline claim: once warm, chunk payloads come from the
		// pool, not the allocator.
		b.ReportMetric(float64(totalMisses)/float64(totalChunks), "payload-allocs/chunk")
	}
}
