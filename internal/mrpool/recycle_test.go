package mrpool

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"rdmamr/internal/obs"
)

// idleBlocks is how many blocks wait on the pool's idle lists.
func (p *Pool) idleBlocks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, idle := range p.idle {
		n += len(idle)
	}
	return n
}

// TestIdleBlockRecycled: a freed local block waits idle, out of the
// books, and the next Alloc it holds at no more than twice the request
// takes it under the new owner's class and length; anything else is a
// fresh carve of the request's own size. A carve the budget would refuse
// is made once the idle blocks go back to their slab, and Close drops
// them.
func TestIdleBlockRecycled(t *testing.T) {
	p := testPool(t, 16<<10)
	c := obs.NewRegistry()
	p.SetCounters(c)
	p.Configure(16<<10, 16<<10) // one slab, and no second
	carves := func() int64 { return c.Counter("mr.slab.allocs").Get() }
	get := func(n int, class string) *Block {
		t.Helper()
		b, err := p.Alloc(n, class)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if len(b.Bytes()) != n || cap(b.Bytes()) != n {
			t.Fatalf("Alloc(%d) gave len %d, cap %d", n, len(b.Bytes()), cap(b.Bytes()))
		}
		return b
	}

	small := get(3000, "stage")
	small.Free()
	if p.OutstandingBlocks() != 0 || p.InUseBytes() != 0 || len(p.Attribution()) != 0 {
		t.Fatalf("an idle block is booked in use: %d blocks, %d bytes, %v",
			p.OutstandingBlocks(), p.InUseBytes(), p.Attribution())
	}
	before := carves()
	if b := get(2000, "header"); b != small {
		t.Fatal("a request the idle block holds at under twice its size carved another")
	}
	if carves() != before {
		t.Fatal("a reuse counted as a carve")
	}
	if attr := p.Attribution(); attr["header"] != 3008 || attr["stage"] != 0 {
		t.Fatalf("attribution %v, want the reused block under its new owner's class", attr)
	}
	small.Free()
	if b := get(1000, "stage"); b == small {
		t.Fatal("a 1000-byte request took a 3008-byte block, over twice its size")
	} else {
		b.Free()
	}
	big := get(5000, "stage") // nothing idle holds it
	if big == small || big.rounded != 5056 {
		t.Fatalf("a 5000-byte request got a %d-byte block, want a fresh carve of 5056", big.rounded)
	}
	big.Free()

	// Idle: 3008, 1024 and 5056 bytes of the one 16 KiB slab. 12 KiB fits
	// only once they are back in the slab, coalesced.
	huge := get(12<<10, "stage")
	if n := p.idleBlocks(); n != 0 {
		t.Fatalf("%d blocks still idle after a carve that needed their bytes", n)
	}
	if p.PinnedBytes() != 16<<10 {
		t.Fatalf("pinned %d, want the one slab", p.PinnedBytes())
	}
	huge.Free()
	if _, err := p.Alloc(16<<10+64, "stage"); !errors.Is(err, ErrBudget) {
		t.Fatalf("an over-budget carve = %v, want ErrBudget", err)
	}
	if n := p.idleBlocks(); n != 0 {
		t.Fatalf("%d blocks idle after a refused carve", n)
	}

	remote, err := p.AllocRemote(3000, "cache")
	if err != nil {
		t.Fatal(err)
	}
	win := remote.Window()
	remote.Free()
	if !win.Dead() || p.idleBlocks() != 0 {
		t.Fatal("a freed remote block kept its window or waits idle")
	}
	if b := get(3000, "stage"); b == remote || b.Window() != nil {
		t.Fatal("Alloc handed out a remote block again")
	}

	idle := get(100, "stage")
	idle.Free()
	p.Close()
	if n := p.idleBlocks(); n != 0 {
		t.Fatalf("%d blocks idle after Close", n)
	}
}

// checkBooks holds the pool to the blocks the caller holds: live, idle
// and free bytes tile every slab exactly, so no two blocks overlap, and
// the in-use books are the sums over the live blocks.
func checkBooks(t *testing.T, p *Pool, live []*Block) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	type extent struct{ off, n int }
	bySlab := make(map[*slab][]extent)
	var inUse int64
	byClass := make(map[string]int64)
	for _, b := range live {
		bySlab[b.slab] = append(bySlab[b.slab], extent{b.off, b.rounded})
		inUse += int64(b.rounded)
		byClass[b.class] += int64(b.rounded)
	}
	for _, idle := range p.idle {
		for _, b := range idle {
			bySlab[b.slab] = append(bySlab[b.slab], extent{b.off, b.rounded})
		}
	}
	for _, s := range p.slabs {
		for _, sp := range s.free {
			bySlab[s] = append(bySlab[s], extent{sp.off, sp.n})
		}
	}
	if len(bySlab) > len(p.slabs) {
		t.Fatalf("blocks in %d slabs, the pool has %d", len(bySlab), len(p.slabs))
	}
	for i, s := range p.slabs {
		es := bySlab[s]
		slices.SortFunc(es, func(a, b extent) int { return a.off - b.off })
		at := 0
		for _, e := range es {
			if e.off != at {
				t.Fatalf("slab %d: extent at %d, want %d (a gap or an overlap): %v", i, e.off, at, es)
			}
			at += e.n
		}
		if at != len(s.mr.Bytes()) {
			t.Fatalf("slab %d: extents cover %d of %d bytes", i, at, len(s.mr.Bytes()))
		}
	}
	if p.inUse != inUse || p.blocks != int64(len(live)) {
		t.Fatalf("books: %d bytes in %d blocks, live %d bytes in %d", p.inUse, p.blocks, inUse, len(live))
	}
	for class, n := range p.byClass {
		if n != byClass[class] {
			t.Fatalf("class %q: %d bytes booked, live %d", class, n, byClass[class])
		}
	}
	for class, n := range byClass {
		if p.byClass[class] != n {
			t.Fatalf("class %q: %d bytes booked, live %d", class, p.byClass[class], n)
		}
	}
	if p.pinned > p.budget {
		t.Fatalf("pinned %d over the %d-byte budget", p.pinned, p.budget)
	}
}

// FuzzPoolOps drives a small pool through a sequence of Alloc,
// AllocRemote and Free decoded from the input, three bytes an operation,
// and checks the books after each one (checkBooks), that a block is
// either a fresh carve of its request or an idle one at most twice it,
// that a refused carve leaves no block idle, that a freed remote block's
// window is dead, and that every block keeps the bytes its owner wrote.
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{0, 0x0b, 0xb8, 3, 0, 0, 0, 0x07, 0xd0})
	f.Add([]byte{0, 0x30, 0, 2, 0x10, 0, 1, 0x20, 0, 3, 1, 0, 3, 0, 0, 0, 0x7f, 0})
	f.Add(bytes.Repeat([]byte{0, 0x0f, 0xff, 4, 0x30, 0, 3, 0, 0}, 8))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const slabBytes, budget, maxOps = 16 << 10, 48 << 10, 64
		p := testPool(t, slabBytes)
		c := obs.NewRegistry()
		p.SetCounters(c)
		p.Configure(budget, slabBytes)
		carves := c.Counter("mr.slab.allocs")
		var live []*Block
		for i := 0; i+3 <= len(ops) && i/3 < maxOps; i += 3 {
			op, arg := ops[i], int(ops[i+1])<<8|int(ops[i+2])
			if op%4 == 3 {
				if len(live) == 0 {
					continue
				}
				j := arg % len(live)
				b := live[j]
				if want := bytes.Repeat([]byte{byte(b.off / blockAlign)}, b.n); !bytes.Equal(b.Bytes(), want) {
					t.Fatalf("op %d: a %d-byte block lost its owner's bytes", i/3, b.n)
				}
				live = slices.Delete(live, j, j+1)
				win := b.Window()
				b.Free()
				if win != nil && !win.Dead() {
					t.Fatalf("op %d: a freed remote block's window is live", i/3)
				}
				checkBooks(t, p, live)
				continue
			}
			n := 1 + arg%(24<<10)
			class := []string{"ring", "stage", "payload"}[op/4%3]
			before := carves.Get()
			var b *Block
			var err error
			if op%4 == 2 {
				b, err = p.AllocRemote(n, class)
			} else {
				b, err = p.Alloc(n, class)
			}
			if errors.Is(err, ErrBudget) {
				if idle := p.idleBlocks(); idle != 0 {
					t.Fatalf("op %d: %d blocks idle after a refused carve", i/3, idle)
				}
				checkBooks(t, p, live)
				continue
			}
			if err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			rounded := (n + blockAlign - 1) &^ (blockAlign - 1)
			switch fresh := carves.Get() > before; {
			case fresh && b.rounded != rounded:
				t.Fatalf("op %d: a %d-byte request carved %d bytes, want %d", i/3, n, b.rounded, rounded)
			case !fresh && (op%4 == 2 || b.rounded < n || b.rounded > 2*n):
				t.Fatalf("op %d: a %d-byte request (remote %v) reused a %d-byte block", i/3, n, op%4 == 2, b.rounded)
			}
			if len(b.Bytes()) != n || cap(b.Bytes()) != n || (b.Window() != nil) != (op%4 == 2) {
				t.Fatalf("op %d: a %d-byte block has len %d, cap %d, window %v", i/3, n, len(b.Bytes()), cap(b.Bytes()), b.Window() != nil)
			}
			for k := range b.Bytes() {
				b.Bytes()[k] = byte(b.off / blockAlign)
			}
			live = append(live, b)
			checkBooks(t, p, live)
		}
	})
}

// TestPoolRecycleConcurrent: goroutines allocate, fill with their own
// pattern, check and free blocks of mixed sizes on one pool, holding a
// few at a time, so a recycled block passes between them. No block is
// written by anyone but its owner, and the books end empty. Under -race
// in `make chaos`.
func TestPoolRecycleConcurrent(t *testing.T) {
	p := testPool(t, 64<<10)
	const workers, rounds, hold = 4, 400, 3
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			type held struct {
				b   *Block
				pat byte
			}
			var hs []held
			drop := func() bool {
				h := hs[0]
				hs = hs[1:]
				for k, v := range h.b.Bytes() {
					if v != h.pat {
						t.Errorf("worker %d: byte %d of a %d-byte block is %#x, want %#x", w, k, h.b.Len(), v, h.pat)
						return false
					}
				}
				h.b.Free()
				return true
			}
			for i := range rounds {
				n := 1 + rng.IntN(12<<10)
				alloc := p.Alloc
				if i%5 == 0 {
					alloc = p.AllocRemote
				}
				b, err := alloc(n, "w")
				if err != nil {
					t.Error(err)
					return
				}
				pat := byte(w<<6 | i&63)
				for k := range b.Bytes() {
					b.Bytes()[k] = pat
				}
				hs = append(hs, held{b, pat})
				if len(hs) > rng.IntN(hold)+1 && !drop() {
					return
				}
			}
			for len(hs) > 0 && drop() {
			}
		}()
	}
	wg.Wait()
	if p.OutstandingBlocks() != 0 || p.InUseBytes() != 0 || len(p.Attribution()) != 0 {
		t.Fatalf("books after every free: %d blocks, %d bytes, %v", p.OutstandingBlocks(), p.InUseBytes(), p.Attribution())
	}
}
