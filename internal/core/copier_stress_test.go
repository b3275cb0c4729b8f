package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
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
		ID: "job_ring", Conf: tt.Conf(), Comparator: kv.BytesComparator,
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
// exactly the sorted union, comparing records in place, each when returned
// and again one behind — after the following Next, the one that ends the
// stream included (the iterator contract: a record is valid until the Next
// after the following one starts).
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
	same := func(n int, rec kv.Record, when string) {
		h.t.Helper()
		want := h.expected[n]
		if !bytes.Equal(rec.Key, want.Key) || !bytes.Equal(rec.Value, want.Value) {
			h.t.Fatalf("record %d %s = %q/%x, want %q/%x (released-buffer poison shows as 0xdb)",
				n, when, rec.Key, rec.Value, want.Key, want.Value)
		}
	}
	n := 0
	var prev kv.Record
	for it.Next() {
		if n > 0 {
			same(n-1, prev, "one behind")
		}
		if n >= len(h.expected) {
			h.t.Fatalf("more than %d records merged", len(h.expected))
		}
		prev = it.Record()
		same(n, prev, "as returned")
		n++
	}
	if err := it.Err(); err != nil {
		h.t.Fatal(err)
	}
	if n > 0 {
		same(n-1, prev, "after the Next that ended the stream")
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
	conf.SetInt(config.KeyParallelCopies, depth)
	return conf
}

// TestRingStressManySegmentsOneHost is the ring's race gauntlet: 32
// segments share one 8-slot connection under an amplified verbs timing
// model, with released payload buffers poisoned so any record that
// outlives its chunk's release turns into visible corruption. Run
// under -race this exercises the host loop, the merge and the consumer
// concurrently, end to end.
func TestRingStressManySegmentsOneHost(t *testing.T) {
	h := newRingHarness(t, stressConf(8), 32, 100)
	nodeOf(h.tt).poison.Store(true)
	// Delay every post by 50 µs (about what 20× QDR latency plus a 2 KiB
	// serialization costs) to open the out-of-order completion windows.
	h.tt.Fabric().Network().SetFaultInjector(chaos.New(chaos.Config{DelayProb: 1, Delay: 50 * time.Microsecond}))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	h.fetch(ctx)

	c := h.cluster.Counters()
	if peak := c.Get("shuffle.rdma.outstanding.peak"); peak < 2 {
		t.Fatalf("outstanding peak = %d; the ring never pipelined", peak)
	}
	// Recycling, judged on this test's own traffic: the fetch took fewer
	// new chunk buffers than it delivered chunks, counting heap misses and
	// every slab carve, its payload blocks among them.
	fresh := c.Get("shuffle.rdma.payload.pool.misses") + c.Get("mr.slab.allocs")
	if chunks := c.Get("shuffle.rdma.packets"); fresh >= chunks {
		t.Fatalf("%d new chunk buffers (heap misses and slab carves) for %d chunks: chunks are not being recycled", fresh, chunks)
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
	h := newRingHarness(t, stressConf(1), 8, 60)
	nodeOf(h.tt).poison.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx)
	if peak := h.cluster.Counters().Get("shuffle.rdma.outstanding.peak"); peak != 1 {
		t.Fatalf("depth-1 ring reached %d outstanding", peak)
	}
}

// TestRingDefaultDepthFollowsParallelCopies: the ring sizes itself from
// mapred.reduce.parallel.copies — the knob that was dead on the RDMA path
// before.
func TestRingDefaultDepthFollowsParallelCopies(t *testing.T) {
	h := newRingHarness(t, stressConf(3), 4, 20)
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
