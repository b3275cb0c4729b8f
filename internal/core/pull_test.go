package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/verbs"
)

// open starts a fetcher over the harness's first n maps (n beyond numMaps
// names maps whose output was never stored) and returns it with the
// iterator the reduce function would pull.
func (h *ringHarness) open(ctx context.Context, n int) (*fetcher, kv.Iterator) {
	h.t.Helper()
	events := make(chan mapred.MapEvent, n)
	for m := 0; m < n; m++ {
		events <- mapred.MapEvent{MapID: m, Host: h.tt.Host()}
	}
	close(events)
	job := h.job
	job.NumMaps = n
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()},
	})
	it, err := f.Fetch(ctx)
	if err != nil {
		f.Close()
		h.t.Fatal(err)
	}
	return f, it
}

// TestPullRecordsIntactUntilFollowingNext: with released payloads poisoned
// and 2 KiB packets (a chunk boundary every ~20 records, segments of
// different lengths ending at different times), every record Next returns
// is whole when returned and still whole just before the following Next —
// the iterator contract the spent-buffer rule exists to keep. The chunk
// buffers out at any moment are bounded by one being walked and one
// look-ahead per segment plus the one just retired, which is what "back
// in the pool no later than the following call" means in numbers. Both
// halves of the protocol: every chunk READ into a registered payload
// block the merge decodes in place (rendezvous, after a cold pass has
// cached every partition), or copied into a heap buffer (eager, caching
// off). Each half must reuse its buffers: the eager one hits the heap
// pool, the rendezvous one carves no more blocks than the bound.
func TestPullRecordsIntactUntilFollowingNext(t *testing.T) {
	for _, tc := range []struct {
		name    string
		caching bool
	}{
		{"rendezvous", true},
		{"eager", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poisonReleasedPayloads.Store(true)
			defer poisonReleasedPayloads.Store(false)

			// Every third map is short, so segments run out mid-stream and
			// their last records sit at the end of a partly filled final
			// chunk.
			const maps = 12
			conf := stressConf(4)
			conf.SetBool(config.KeyCachingEnabled, tc.caching)
			h := newRingHarness(t, conf, 0, 0)
			for m := 0; m < maps; m++ {
				n := 150
				if m%3 == 0 {
					n = 40 + m
				}
				h.plant(m, n)
			}
			h.numMaps, h.job.NumMaps = maps, maps
			expected := h.expected

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			c := h.tt.Counters()
			if tc.caching {
				h.fetch(ctx) // cold: demand misses re-cache every partition
				waitFor(t, func() bool { return c.Get("cache.inserted") >= maps })
			}
			before := c.Snapshot()
			delta := func(name string) int64 { return c.Get(name) - before[name] }
			base := payloadsOut.Load()
			f, it := h.open(ctx, maps)
			defer f.Close()
			same := func(n int, rec kv.Record, when string) {
				t.Helper()
				want := expected[n]
				if !bytes.Equal(rec.Key, want.Key) || !bytes.Equal(rec.Value, want.Value) {
					t.Fatalf("record %d %s = %q/%x, want %q/%x (released-buffer poison shows as 0xdb)",
						n, when, rec.Key, rec.Value, want.Key, want.Value)
				}
			}
			n := 0
			var held kv.Record
			for {
				if n > 0 {
					same(n-1, held, "just before the following Next")
				}
				if !it.Next() {
					break
				}
				if n >= len(expected) {
					t.Fatalf("more than %d records merged", len(expected))
				}
				held = it.Record()
				same(n, held, "as returned")
				if out := payloadsOut.Load() - base; out > 2*maps+1 {
					t.Fatalf("%d chunk buffers out after record %d, want at most %d", out, n, 2*maps+1)
				}
				n++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if n != len(expected) {
				t.Fatalf("merged %d records, want %d", n, len(expected))
			}
			heapGets := delta("shuffle.rdma.payload.pool.hits") + delta("shuffle.rdma.payload.pool.misses")
			if !tc.caching {
				if delta("shuffle.rdma.payload.pool.hits") == 0 {
					t.Fatal("payload pool never hit: chunks are not being recycled")
				}
				return
			}
			if delta("shuffle.rdma.read.issued") == 0 {
				t.Fatal("no chunk was READ: the fetch did not take the rendezvous path")
			}
			if heapGets != 0 {
				t.Fatalf("%d chunks were copied into heap buffers, want every chunk READ into a payload block", heapGets)
			}
			f.blocks.mu.Lock()
			carves := len(f.blocks.carved)
			f.blocks.mu.Unlock()
			if carves > 2*maps+1 {
				t.Fatalf("%d payload blocks carved, want at most %d: blocks are not being reused", carves, 2*maps+1)
			}
		})
	}
}

// settleBlocks requires the fetcher's payload blocks to be back at their
// baseline — Close frees them before it returns — and waits for the
// device's other slab blocks to come back to theirs: the tracker may
// still be answering a request the closed fetcher abandoned.
func settleBlocks(t *testing.T, pool *mrpool.Pool, blocks, payloadBytes int64, when string) {
	t.Helper()
	if got := pool.Attribution()["payload"]; got != payloadBytes {
		t.Fatalf("%s: %d payload block bytes in use, baseline %d", when, got, payloadBytes)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.OutstandingBlocks() != blocks {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d slab blocks outstanding, baseline %d (%v)", when, pool.OutstandingBlocks(), blocks, pool.Attribution())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPullPayloadAccounting: every chunk buffer handed out — a heap buffer
// from getPayload or a registered payload block — comes back on each way
// a fetch can end, and the device's slab books with it. With
// mapred.rdma.overlap.reduce=false the records keep their chunks until
// Close, which then frees the blocks they alias.
func TestPullPayloadAccounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		caching bool
	}{
		{"rendezvous", true},
		{"eager", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const maps = 8
			conf := stressConf(4)
			conf.SetBool(config.KeyCachingEnabled, tc.caching)
			h := newRingHarness(t, conf, maps, 120)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			// Warm: the plane's endpoint is dialed and, with caching on,
			// every partition re-cached, so later fetches READ them.
			h.fetch(ctx)
			if tc.caching {
				waitFor(t, func() bool { return h.tt.Counters().Get("cache.inserted") >= maps })
			}
			pool := mrpool.For(h.tt.Device())
			base := payloadsOut.Load()
			baseBlocks, basePayload := pool.OutstandingBlocks(), pool.Attribution()["payload"]
			settled := func(when string) {
				t.Helper()
				if out := payloadsOut.Load() - base; out != 0 {
					t.Fatalf("%s: %d chunk buffers never given back", when, out)
				}
				settleBlocks(t, pool, baseBlocks, basePayload, when)
			}

			f, it := h.open(ctx, maps)
			for it.Next() {
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			// End of stream alone settles the buffers: the two the last
			// calls retired do not wait for Close.
			if out := payloadsOut.Load() - base; out != 0 {
				t.Fatalf("fully drained, before Close: %d chunk buffers never given back", out)
			}
			f.Close()
			settled("fully drained")

			f, it = h.open(ctx, maps)
			for i := 0; i < 300; i++ {
				if !it.Next() {
					t.Fatalf("stream ended at record %d: %v", i, it.Err())
				}
			}
			if payloadsOut.Load() == base {
				t.Fatal("no chunk buffer out in mid-stream: the test is not exercising Close")
			}
			f.Close()
			settled("Close in mid-stream")

			f, _ = h.open(ctx, maps)
			f.Close()
			settled("Close before the first Next")

			// Map 8 was never stored: its segment fails while priming, with
			// the other eight segments' first chunks already delivered.
			f, it = h.open(ctx, maps+1)
			for it.Next() {
			}
			if it.Err() == nil {
				t.Fatal("a missing map output did not fail the stream")
			}
			f.Close()
			settled("segment error")

			// Barrier mode: Fetch drains the stream into the records the
			// reduce keeps, so no chunk goes back before Close. Heap
			// buffers are left to the collector; blocks must be freed.
			job := h.job
			h.job.Conf = job.Conf.Clone()
			h.job.Conf.SetBool(config.KeyOverlapReduce, false)
			f, it = h.open(ctx, maps)
			h.job = job
			n := 0
			for it.Next() {
				n++
			}
			if err := it.Err(); err != nil || n != len(h.expected) {
				t.Fatalf("barrier mode: %d of %d records, err %v", n, len(h.expected), err)
			}
			if tc.caching && pool.Attribution()["payload"] == basePayload {
				t.Fatal("barrier mode holds no payload block before Close: the fetch did not READ")
			}
			f.Close()
			settleBlocks(t, pool, baseBlocks, basePayload, "barrier mode")
		})
	}
}

// settleGoroutines waits for the goroutine count to come down to want.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", when, runtime.NumGoroutine(), want,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// connGoroutines counts the live goroutines that host connections run:
// every goroutine a fetcher method started, except the per-host
// supervisors and the event goroutine Fetch starts.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	const by = "\ncreated by rdmamr/internal/core.(*fetcher)."
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if i := strings.Index(g, by); i >= 0 && !strings.HasPrefix(g[i+len(by):], "Fetch") {
			count++
		}
	}
	return count
}

// TestPullCancelWhileBlockedOnRefill: the reduce goroutine is inside Next,
// waiting for a chunk the fabric is sitting on, when the fetch context is
// cancelled. Next returns, Err carries ctx.Err(), Close returns, no
// goroutine and no chunk buffer is left behind. The same for a Close that
// comes before the first Next. Both halves of the protocol: the chunk held
// back is a copier READ of a cache-resident partition (rendezvous), or
// with caching off the responder's RDMA write (eager). Hadoop-A, asked
// to cache, has no cache and serves eagerly — and settles to the same
// baseline: the tracker keeps no goroutine per fetch. While the chunk is
// parked, the host connection runs exactly two goroutines on every row.
func TestPullCancelWhileBlockedOnRefill(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engine  *Engine
		caching bool
		op      verbs.Opcode
	}{
		{"rendezvous", New(), true, verbs.OpRDMARead},
		{"eager", New(), false, verbs.OpRDMAWrite},
		{"hadoop-a", NewHadoopA(), true, verbs.OpRDMAWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conf := stressConf(2)
			conf.SetBool(config.KeyCachingEnabled, tc.caching)
			h := newRingHarnessOn(t, tc.engine, conf, 1, 200) // one segment, ~10 chunks
			h.fetch(context.Background())                     // dial the plane's shared endpoint once
			if tc.op == verbs.OpRDMARead {
				// The cold pass above was a demand miss; once its re-cache
				// lands the partition is served by manifest.
				waitFor(t, func() bool { return h.tt.Counters().Get("cache.inserted") >= 1 })
			}
			// Closed fetchers' pumps (this test's warm pass, earlier tests')
			// may still be winding down: count from none.
			waitFor(t, func() bool { return connGoroutines() == 0 })
			baseline := runtime.NumGoroutine()
			basePayloads := payloadsOut.Load()
			pool := mrpool.For(h.tt.Device())
			baseBlocks, basePayload := pool.OutstandingBlocks(), pool.Attribution()["payload"]

			g := chaos.ParkNth(tc.op, 3)
			h.tt.Fabric().Network().SetFaultInjector(g)
			defer h.tt.Fabric().Network().SetFaultInjector(nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f, it := h.open(ctx, 1)
			type result struct {
				n   int
				err error
			}
			done := make(chan result)
			go func() {
				n := 0
				for it.Next() {
					n++
				}
				done <- result{n, it.Err()}
			}()
			select {
			case <-g.Reached(): // chunk 3 is parked: the consumer runs dry after chunk 2
			case <-time.After(10 * time.Second):
				t.Fatalf("no third %v in 10 s: the fetch is not taking the %s path", tc.op, tc.name)
			}
			// A live host connection is its two pumps, whichever half of the
			// protocol is moving the bytes: the pump that finds a READ issues
			// it, and the supervisor keeps the clocks.
			// (Errorf, not Fatalf: the parked request must still be released.)
			if n := connGoroutines(); n != 2 {
				t.Errorf("host connection runs %d goroutines while the chunk is parked, want 2", n)
			}
			cancel()
			select {
			case r := <-done:
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("Err = %v after %d records, want context.Canceled", r.err, r.n)
				}
				if r.n == 0 || r.n >= 200 {
					t.Fatalf("%d records before the cancel; the stream was meant to stop mid-way", r.n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Next still blocked 10 s after the fetch context was cancelled")
			}
			g.Release()
			closed := make(chan struct{})
			go func() { f.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close hangs after a cancelled fetch")
			}
			settleGoroutines(t, baseline, "after cancel + Close")
			if out := payloadsOut.Load() - basePayloads; out != 0 {
				t.Fatalf("%d chunk buffers never returned after cancel + Close", out)
			}
			// On the rendezvous row the parked READ held a payload block:
			// it went back only once ReadSG returned, and Close freed it.
			settleBlocks(t, pool, baseBlocks, basePayload, "after cancel + Close")

			h.tt.Fabric().Network().SetFaultInjector(nil)
			f, _ = h.open(context.Background(), 1)
			f.Close()
			settleGoroutines(t, baseline, "after Close before the first Next")
			settleBlocks(t, pool, baseBlocks, basePayload, "after Close before the first Next")
		})
	}
}

// TestPullResumesAtOffsetAfterDroppedWrite: the responder's RDMA write of
// a partition's third chunk fails, and the stream still equals the
// fault-free one record for record, whether the copier's retry or
// RecoverMap heals it: either way the chunk is re-requested at its own
// offset, on Hadoop-A's fetches too. (Its old fetch loop restarted the
// partition at 0, so the reduce saw the first two packets' records twice.)
func TestPullResumesAtOffsetAfterDroppedWrite(t *testing.T) {
	h := newRingHarnessOn(t, NewHadoopA(), stressConf(2), 1, 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx) // fault-free: the stream is the sorted union
	recoveries := 0
	h.recoverMap = func(context.Context, int, int) (string, error) {
		recoveries++
		return h.tt.Host(), nil // the output is intact; only the write failed
	}
	retries := h.tt.Counters().Get("shuffle.rdma.retries")

	fault := chaos.DropNth(verbs.OpRDMAWrite, 3)
	h.tt.Fabric().Network().SetFaultInjector(fault)
	defer h.tt.Fabric().Network().SetFaultInjector(nil)
	h.fetch(ctx) // the same stream, record for record
	select {
	case <-fault.Reached():
	default:
		t.Fatal("the third write never came: nothing was dropped")
	}
	retries = h.tt.Counters().Get("shuffle.rdma.retries") - retries
	if recoveries == 0 && retries == 0 {
		t.Fatal("the dropped write healed by neither a retry nor RecoverMap")
	}
	t.Logf("healed by %d retries, %d recoveries", retries, recoveries)
}

// TestPullOverlapOffSameSequence: mapred.rdma.overlap.reduce=false drains
// the same iterator into a slice. The sequence is the streaming one
// (both are checked against the harness's sorted union), and with
// recycling off every record is still whole after the last one arrived —
// released payloads are poisoned, so a pooled buffer would show.
func TestPullOverlapOffSameSequence(t *testing.T) {
	poisonReleasedPayloads.Store(true)
	defer poisonReleasedPayloads.Store(false)
	for _, overlap := range []bool{true, false} {
		conf := stressConf(4)
		conf.SetBool(config.KeyOverlapReduce, overlap)
		h := newRingHarness(t, conf, 16, 100)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		h.fetch(ctx)
		cancel()
	}
}

// plantConf is the benchmark's shuffle-only configuration: the RDMA
// engine's defaults, caching as given.
func plantConf(caching bool) *config.Config {
	conf := config.New()
	conf.SetBool(config.KeyRDMAEnabled, true)
	conf.SetBool(config.KeyCachingEnabled, caching)
	return conf
}

// plantHarness is the benchmark's shuffle-only shape in one process: maps
// partitions of partBytes planted in one tracker's store (and announced,
// so the prefetcher caches them when caching is on), fetched by one
// reducer.
func plantHarness(t *testing.T, conf *config.Config, maps, partBytes int) *ringHarness {
	t.Helper()
	cluster, err := mapred.NewCluster(1, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	tt := cluster.Trackers()[0]
	h := &ringHarness{t: t, cluster: cluster, tt: tt, numMaps: maps, job: mapred.JobInfo{
		ID: "job_plant", Conf: cluster.Conf(), Comparator: kv.BytesComparator,
		NumMaps: maps, NumReduces: 1,
	}}
	value := bytes.Repeat([]byte{0xA5}, 88)
	for m := 0; m < maps; m++ {
		var recs []kv.Record
		for i := 0; i < partBytes/100; i++ {
			recs = append(recs, kv.Record{Key: []byte(fmt.Sprintf("%06d-%03d", i, m)), Value: value})
		}
		tt.Store().OverwriteOwned(mapred.MapOutputKey(h.job.ID, m, 0), kv.WriteRun(recs))
		cluster.Servers()[0].MapOutputReady(h.job, m)
		h.expected = append(h.expected, recs...)
	}
	sort.Slice(h.expected, func(i, j int) bool {
		return bytes.Compare(h.expected[i].Key, h.expected[j].Key) < 0
	})
	if conf.Bool(config.KeyCachingEnabled) {
		deadline := time.Now().Add(time.Minute)
		for cluster.Counters().Get("cache.prefetched") < int64(maps) {
			if time.Now().After(deadline) {
				t.Fatal("prefetcher did not cache the planted partitions")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return h
}

// drain is one reduce fetch with nothing kept: what the allocation
// budgets price. It returns the bytes of key and value delivered.
func (h *ringHarness) drain() int {
	f, it := h.open(context.Background(), h.numMaps)
	defer f.Close()
	n := 0
	for it.Next() {
		rec := it.Record()
		n += len(rec.Key) + len(rec.Value)
	}
	if err := it.Err(); err != nil {
		h.t.Fatal(err)
	}
	return n
}

// TestPullSmallFetchAllocBudget guards the claim the pull iterator was
// made for (shuffle_small's alloc_mb_per_gb): one reduce fetch of 64 ×
// 4 KiB partitions on a warm plane, caching off, everything counted,
// tracker side included. A warm fetch reuses a closed fetcher's arena and
// the responder's staging blocks (D26), so what it allocates is per fetch,
// not per partition: 9.0 KB in 44 allocations, 0.036 of the bytes it
// delivers. The budget is a sixteenth, which leaves room for one pooled
// chunk buffer lost to a collection, and one allocation a partition, which
// anything that comes back per partition fails — a per-segment channel,
// a per-chunk iterator, box or staging block, a per-answer decode. The
// fetch carves one slab block, its connection's ring, and so does every
// warm fetch after it: no staging block is carved.
func TestPullSmallFetchAllocBudget(t *testing.T) {
	if alloctest.Race {
		t.Skip("the payload pool is a sync.Pool, which drops buffers at random under the race detector")
	}
	const maps = 64
	h := plantHarness(t, plantConf(false), maps, 4<<10)
	delivered := h.drain() // warm: endpoint dialed, ring slab carved, payload pool filled
	h.drain()
	c := h.tt.Counters()
	for i := 0; i < 3; i++ {
		before := c.Get("mr.slab.allocs")
		h.drain()
		if carves := c.Get("mr.slab.allocs") - before; carves != 1 {
			t.Fatalf("warm fetch %d carved %d slab blocks, want 1: the ring (%v)", i, carves, mrpool.For(h.tt.Device()).Attribution())
		}
	}
	allocated := alloctest.Bytes(5, func() { h.drain() })
	allocs := alloctest.Allocs(5, func() { h.drain() })
	t.Logf("a fetch delivering %d bytes allocated %d bytes in %d allocations", delivered, allocated, allocs)
	if budget := uint64(delivered) / 16; allocated > budget {
		t.Errorf("a fetch delivering %d bytes allocated %d, budget %d", delivered, allocated, budget)
	}
	if budget := uint64(maps); allocs > budget {
		t.Errorf("a fetch of %d partitions made %d allocations, budget %d (one a partition)", maps, allocs, budget)
	}
}

// TestPullBulkFetchAllocBudget: 16 × 1 MiB cache-resident partitions, 128
// KiB packets. Every chunk is READ into a registered payload block, so a
// warm fetch gets no heap payload at all and carves no more blocks than
// the merge can hold at once (2 × maps + 1, beside the ring). The whole
// fetch (≈ 140 KB of requests, headers, per-chunk iterators and block
// headers) stays under two payloads.
func TestPullBulkFetchAllocBudget(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const maps = 16
	h := plantHarness(t, plantConf(true), maps, 1<<20)
	h.drain()
	h.drain()
	c := h.tt.Counters()
	heapGets := func() int64 {
		return c.Get("shuffle.rdma.payload.pool.hits") + c.Get("shuffle.rdma.payload.pool.misses")
	}
	var gets, carves int64
	allocated := alloctest.Bytes(5, func() {
		g, a := heapGets(), c.Get("mr.slab.allocs")
		h.drain()
		gets = max(gets, heapGets()-g)
		carves = max(carves, c.Get("mr.slab.allocs")-a)
	})
	t.Logf("a warm fetch allocated %d bytes and carved %d slab blocks", allocated, carves)
	packet := uint64(h.job.Conf.Int(config.KeyRDMAPacketBytes))
	if allocated >= 2*packet {
		t.Errorf("a warm 16 MiB fetch allocated %d bytes, want less than two %d-byte payloads", allocated, packet)
	}
	if gets != 0 {
		t.Errorf("a warm fetch took %d heap payloads, want 0: every chunk is READ into a payload block", gets)
	}
	if carves > 2*maps+2 {
		t.Errorf("a warm fetch carved %d slab blocks, want at most its ring and %d payload blocks", carves, 2*maps+1)
	}
}

// TestPayloadBudgetExhaustedFallsBackIntact: the device's registered-memory
// budget (mapred.rdma.mr.budget.bytes, one slab of exactly that size)
// holds the cached bodies, the endpoints, the response header and the
// copier's ring, and three payload blocks. A cache-resident fetch of eight
// partitions wants more blocks than that at once, so carves fail partway
// (ErrBudget): those READs land in their ring slots and are copied out into
// heap buffers, the existing eager landing. The stream stays
// byte-identical, no map is re-run, and nothing is left pinned.
func TestPayloadBudgetExhaustedFallsBackIntact(t *testing.T) {
	const maps, partBytes, blocks = 8, 64 << 10, 3
	conf := plantConf(true)
	conf.SetInt(config.KeyRDMAPacketBytes, 16<<10) // four chunks a partition
	// What the fetch pins besides payload blocks, on an unbudgeted twin:
	// everything a drained fetch leaves carved, plus the ring it freed.
	probe := plantHarness(t, conf, maps, partBytes)
	probe.drain()
	f := newFetcher(mapred.ReduceTaskInfo{Job: probe.job, Local: probe.tt})
	budget := mrpool.For(probe.tt.Device()).InUseBytes() + int64(f.depth*f.slotSize) +
		blocks*int64(payloadCap(16<<10))

	conf = conf.Clone()
	conf.SetInt(config.KeyRDMAMRBudget, budget)
	conf.SetInt(config.KeyRDMAMRSlabBytes, budget)
	h := plantHarness(t, conf, maps, partBytes)
	pool := mrpool.For(h.tt.Device())
	c := h.tt.Counters()
	before := c.Snapshot()
	delta := func(name string) int64 { return c.Get(name) - before[name] }
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx) // the merged stream, record for record
	if delta("mr.slab.failures") == 0 {
		t.Fatalf("no carve failed under a %d-byte budget: the test is not exhausting it (%v)", budget, pool.Attribution())
	}
	packets := delta("shuffle.rdma.packets")
	heapGets := delta("shuffle.rdma.payload.pool.hits") + delta("shuffle.rdma.payload.pool.misses")
	if delta("shuffle.rdma.read.issued") == 0 || delta("shuffle.rdma.zerocopy.hits") != packets {
		t.Fatalf("%d of %d chunks READ: the fetch was meant to be all rendezvous", delta("shuffle.rdma.zerocopy.hits"), packets)
	}
	if heapGets == 0 || heapGets == packets {
		t.Fatalf("%d of %d chunks fell back to a ring slot, want some but not all", heapGets, packets)
	}
	if n := delta("shuffle.fetch.failures"); n != 0 {
		t.Fatalf("%d fetch failures sent maps to re-execution", n)
	}
	t.Logf("%d of %d chunks landed in a ring slot after %d refused carves", heapGets, packets, delta("mr.slab.failures"))
	// The books: a second exhausted fetch leaves the slab as the first did.
	base, basePayload := pool.OutstandingBlocks(), pool.Attribution()["payload"]
	h.fetch(ctx)
	settleBlocks(t, pool, base, basePayload, "after a second exhausted fetch")
	if basePayload != 0 {
		t.Fatalf("%d payload block bytes still carved after Close", basePayload)
	}
}
