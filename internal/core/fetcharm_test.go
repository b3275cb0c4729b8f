package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
)

func waitFor(t testing.TB, cond func() bool) {
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

// TestRingReadArmServesFromCache: once every partition is cache-resident,
// a full fetcher lifetime moves the entire shuffle by one-sided READs —
// every delivered chunk was READ, the responder served nothing eagerly
// and staged nothing, zero fallbacks — and releases every lease when done.
func TestRingReadArmServesFromCache(t *testing.T) {
	h := newRingHarness(t, stressConf(4), 8, 100)
	nodeOf(h.tt).poison.Store(true)
	srv, ok := h.cluster.Servers()[0].(*trackerServer)
	if !ok {
		t.Fatalf("server is %T, want *trackerServer", h.cluster.Servers()[0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Cold pass: demand misses are served eagerly from disk and re-cache
	// every partition in the background.
	h.fetch(ctx)
	c := h.cluster.Counters()
	waitFor(t, func() bool { return c.Get("cache.inserted") >= int64(h.numMaps) })

	before := c.Snapshot()
	delta := func(name string) int64 { return c.Get(name) - before[name] }

	// Warm pass: everything is cache-resident, so the responder publishes
	// manifests and never touches a payload byte.
	h.fetch(ctx)

	chunks := delta("shuffle.rdma.packets")
	if chunks == 0 {
		t.Fatal("warm pass counted no delivered chunks")
	}
	if got := delta("shuffle.rdma.zerocopy.hits"); got != chunks {
		t.Fatalf("%d of %d warm chunks were READ", got, chunks)
	}
	if got := delta("shuffle.rdma.read.issued"); got < chunks {
		t.Fatalf("read.issued grew by %d for %d chunks: a chunk arrived without a READ", got, chunks)
	}
	if got, want := delta("shuffle.rdma.read.bytes"), delta("shuffle.rdma.bytes"); got != want || want == 0 {
		t.Fatalf("read.bytes grew by %d, shuffle.rdma.bytes by %d", got, want)
	}
	if got := delta("shuffle.rdma.read.manifests"); got < int64(h.numMaps) {
		t.Fatalf("%d manifests for %d cached maps", got, h.numMaps)
	}
	if got := delta("shuffle.rdma.zerocopy.fallbacks"); got != 0 {
		t.Fatalf("warm pass was served %d eager responses", got)
	}
	if n := c.Get("shuffle.rdma.stage.outstanding"); n != 0 {
		t.Fatalf("%d staging blocks outstanding after a READ-only pass", n)
	}
	if n := c.Get("shuffle.rdma.read.fallbacks"); n != 0 {
		t.Fatalf("%d fallbacks on an undisturbed warm fetch", n)
	}
	// Eager LeaseRelease from the copier drains the responder's table
	// without waiting out the 30s deadline.
	waitFor(t, func() bool { return srv.leases.live() == 0 })
	if c.Get("shuffle.rdma.read.lease.expired") != 0 {
		t.Fatal("janitor expired leases the copier should have released")
	}
}

// TestRingReadArmEvictionChurn races published manifests against cache
// eviction and forced lease teardown (under -race): a 5ms lease TTL plus
// a goroutine hammering JobComplete + lease drain guarantees READs land
// on deregistered memory mid-plan. Every such fault must degrade to an
// eager re-issue — the merged stream stays byte-exact on every round
// (released-buffer poison turns any stale read into visible corruption)
// and nothing hangs or leaks.
func TestRingReadArmEvictionChurn(t *testing.T) {
	conf := stressConf(4)
	conf.SetInt(config.KeyRDMAReadLeaseTimeout, 5)
	h := newRingHarness(t, conf, 8, 400)
	nodeOf(h.tt).poison.Store(true)
	srv, ok := h.cluster.Servers()[0].(*trackerServer)
	if !ok {
		t.Fatalf("server is %T, want *trackerServer", h.cluster.Servers()[0])
	}
	// Delay every post by 50 µs so a plan's READs stretch over
	// milliseconds and the eviction window stays open.
	h.tt.Fabric().Network().SetFaultInjector(chaos.New(chaos.Config{DelayProb: 1, Delay: 50 * time.Microsecond}))

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	h.fetch(ctx) // seed the cache
	waitFor(t, func() bool { return h.cluster.Counters().Get("cache.inserted") >= 1 })

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
				// Strike only while a plan is outstanding: evict every
				// cached partition, then drop the lease pins — the copier's
				// remaining READs now target deregistered memory. Between
				// strikes the cache re-warms, so manifests keep flowing.
				if srv.leases.live() > 0 {
					srv.JobComplete(h.job)
					srv.leases.drain()
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	c := h.cluster.Counters()
	rounds := 0
	for ; rounds < 25; rounds++ {
		h.fetch(ctx) // byte-exact merge is the hard assertion
		if c.Get("shuffle.rdma.read.fallbacks") >= 1 && rounds >= 2 {
			break
		}
	}
	close(done)
	wg.Wait()

	if c.Get("shuffle.rdma.read.fallbacks") == 0 {
		t.Fatalf("no READ fallback in %d churn rounds; eviction race never exercised", rounds)
	}
	if c.Get("shuffle.rdma.read.issued") == 0 {
		t.Fatal("churn rounds never READ a chunk at all")
	}
	waitFor(t, func() bool { return srv.leases.live() == 0 })
}

// live returns the number of outstanding leases (test hook).
func (t *leaseTable) live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}
