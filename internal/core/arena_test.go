package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/verbs"
)

// holds reports whether a waits on the list.
func (l *arenaList) holds(a *fetchArena) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Contains(l.free, a)
}

// idleBlocks is how many blocks wait on the list.
func (l *blockList) idleBlocks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

// assertArenaCleared fails unless a given-back arena holds nothing of the
// fetcher that used it: no segment, request, chunk buffer or fetcher in
// any segment slot or peer, and no host in the index.
func assertArenaCleared(t *testing.T, a *fetchArena) {
	t.Helper()
	for i, seg := range a.segs[:cap(a.segs)] {
		if seg.f != nil || seg.peer != nil || seg.arrived || seg.next.pl.buf != nil || seg.cur.buf != nil || seg.err != nil {
			t.Fatalf("segment slot %d still holds map %d of the fetcher that gave the arena back", i, seg.mapID)
		}
	}
	for i := range a.peers {
		p := &a.peers[i]
		if p.f != nil || p.cur != nil || p.head != 0 || len(p.reqs) != 0 {
			t.Fatalf("peer slot %d still holds host %q's state", i, p.host)
		}
		for _, req := range p.reqs[:cap(p.reqs)] {
			if req.seg != nil {
				t.Fatalf("peer slot %d's queue still names a segment of map %d", i, req.seg.mapID)
			}
		}
		for _, ps := range p.pending {
			if ps.busy() {
				t.Fatalf("peer slot %d's ring books still hold a request", i)
			}
		}
	}
	if len(a.byHost) != 0 {
		t.Fatalf("the host index still holds %d peers", len(a.byHost))
	}
}

// TestArenaReuseAfterAbandonedFetch: a fetcher is abandoned with the
// responder's RDMA write of one of its chunks parked in the fabric —
// closed in mid-stream, or cancelled while its consumer waits on that
// chunk — and the next fetcher on the node takes its arena: the same
// segments, peers and stream. The arena it takes is cleared. The parked
// write, let go once the second fetcher has sent requests that wait
// behind it on the shared endpoint, lands in the first fetcher's freed
// ring and faults, and the answers to the first fetcher's requests end as
// strays of its closed lease. The second fetcher's stream is the planted one
// record for record, in exactly the chunks a fault-free fetch takes, so
// no reused segment received an old chunk; released payloads are
// poisoned. Under -race in `make chaos`.
func TestArenaReuseAfterAbandonedFetch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel bool
	}{
		{"closed mid-stream", false},
		{"cancelled on refill", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poisonReleasedPayloads.Store(true)
			defer poisonReleasedPayloads.Store(false)
			const maps = 2
			conf := stressConf(2)
			conf.SetBool(config.KeyCachingEnabled, false)
			h := newRingHarness(t, conf, maps, 200)
			c := h.tt.Counters()
			h.fetch(context.Background()) // dial the plane's shared endpoint once
			packets := c.Get("shuffle.rdma.packets")
			h.fetch(context.Background())
			clean := c.Get("shuffle.rdma.packets") - packets
			base := payloadsOut.Load()

			g := chaos.ParkNth(verbs.OpRDMAWrite, 3)
			h.tt.Fabric().Network().SetFaultInjector(g)
			defer h.tt.Fabric().Network().SetFaultInjector(nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f, it := h.open(ctx, maps)
			arena := f.arena
			reached := func() {
				t.Helper()
				select {
				case <-g.Reached():
				case <-time.After(10 * time.Second):
					t.Fatal("no third RDMA write in 10 s: nothing is parked")
				}
			}
			if tc.cancel {
				done := make(chan error)
				go func() {
					for it.Next() {
					}
					done <- it.Err()
				}()
				reached()
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("Err = %v after the cancel, want context.Canceled", err)
				}
			} else {
				// The first Next primes both segments with their first
				// chunks, which asks for their second: the third write.
				for n := 0; n < 10; n++ {
					if !it.Next() {
						t.Fatalf("stream ended at record %d: %v", n, it.Err())
					}
				}
				reached()
			}
			strays := c.Get("shuffle.rdma.conn.strays")
			f.Close()
			assertArenaCleared(t, arena)
			if !arenas.holds(arena) {
				t.Fatal("the closed fetcher's arena is not on the free list")
			}

			// The parked write goes once the second fetcher has sent its
			// first requests, which wait behind it on the shared endpoint.
			packets = c.Get("shuffle.rdma.packets")
			reqs := c.Get("shuffle.rdma.request.msgs")
			var release sync.Once
			sent := make(chan struct{})
			go func() {
				for c.Get("shuffle.rdma.request.msgs") == reqs {
					select {
					case <-sent:
						return
					case <-time.After(time.Millisecond):
					}
				}
				release.Do(g.Release)
			}()
			var reused bool
			ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			h.fetchThen(ctx, func(next *fetcher) { reused = next.arena == arena })
			close(sent)
			release.Do(g.Release)
			if !reused {
				t.Fatal("the second fetcher did not take the first one's arena")
			}
			if got := c.Get("shuffle.rdma.packets") - packets; got != clean {
				t.Fatalf("the second fetch delivered %d chunks, a fault-free one %d", got, clean)
			}
			waitFor(t, func() bool { return c.Get("shuffle.rdma.conn.strays") > strays })
			if out := payloadsOut.Load() - base; out != 0 {
				t.Fatalf("%d chunk buffers never given back", out)
			}
			// Every chunk was staged, the one whose write was parked under
			// an abandoned fetcher included: each staging block was
			// released, and closing the tracker frees what its free lists
			// kept.
			if n := c.Get("shuffle.rdma.stage.outstanding"); n != 0 {
				t.Fatalf("%d staging blocks never released", n)
			}
			h.cluster.Close()
			if attr := mrpool.For(h.tt.Device()).Attribution(); attr["stage"] != 0 || attr["header"] != 0 {
				t.Fatalf("header or staging bytes left after the tracker closed: %v", attr)
			}
		})
	}
}

// TestArenaListBounded: the list makes an arena only when it holds none,
// so fetchers opened and closed again and again leave no more arenas idle
// than were ever open at once; and it keeps none that held more than
// maxArenaMaps segments.
func TestArenaListBounded(t *testing.T) {
	var l arenaList
	const open = 3
	for round := 0; round < 3; round++ {
		var out []*fetchArena
		for i := 0; i < open; i++ {
			out = append(out, l.get())
		}
		for _, a := range out {
			l.put(a)
		}
		if n := len(l.free); n != open {
			t.Fatalf("round %d: %d arenas idle after %d fetchers closed, want %d", round, n, open, open)
		}
	}
	big := l.get()
	big.segs = make([]segment, 0, maxArenaMaps+1)
	l.put(big)
	if l.holds(big) {
		t.Fatalf("an arena of %d segments was kept", maxArenaMaps+1)
	}
}

// TestBlockListRecycled: a block goes back to the server's free list and
// the next answer it holds takes it, the smallest idle block that does; a
// carve is the chunk's size; the list keeps no more than keep blocks, the
// larger ones; a carve the budget refuses is made once the idle blocks
// are freed; and close frees them to the slab.
func TestBlockListRecycled(t *testing.T) {
	dev, err := verbs.NewNetwork().NewDevice("block-list")
	if err != nil {
		t.Fatal(err)
	}
	pool := mrpool.For(dev)
	pool.Configure(16<<10, 16<<10) // one slab, and no second
	l := blockList{pool: pool, class: "stage", keep: 2}
	get := func(n int) *mrpool.Block {
		t.Helper()
		b, err := l.get(n)
		if err != nil {
			t.Fatalf("get(%d): %v", n, err)
		}
		if b.Len() < n {
			t.Fatalf("get(%d) returned a %d-byte block", n, b.Len())
		}
		return b
	}
	small := get(3000)
	l.put(small)
	if b := get(2000); b != small {
		t.Fatal("a chunk that fits the idle block carved another")
	}
	big := get(5000) // nothing idle
	if big.Len() != 5000 {
		t.Fatalf("a 5000-byte chunk was carved %d bytes", big.Len())
	}
	tiny := get(100)
	for _, b := range []*mrpool.Block{small, big, tiny} {
		l.put(b)
	}
	if n := l.idleBlocks(); n != 2 {
		t.Fatalf("%d blocks kept, want keep (2)", n)
	}
	if n := pool.OutstandingBlocks(); n != 2 {
		t.Fatalf("%d blocks outstanding, want the 2 the list keeps", n)
	}
	if b := get(4000); b != big {
		t.Fatalf("a 4000-byte chunk took a %d-byte block: the list did not keep the two larger ones", b.Len())
	}
	l.put(big)
	// 8 KiB of the one slab is idle on the list, so 12 KiB fits only once
	// the list lets its blocks go.
	huge := get(12 << 10)
	if n := l.idleBlocks(); n != 0 {
		t.Fatalf("%d blocks still idle after a refused carve", n)
	}
	l.put(huge)
	l.close()
	if n := pool.OutstandingBlocks(); n != 0 {
		t.Fatalf("%d blocks outstanding after close", n)
	}
}
