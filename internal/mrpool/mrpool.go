// Package mrpool is the global registered-memory accountant and slab MR
// allocator (DESIGN.md D13). Instead of every subsystem registering its
// own buffers ad hoc — per-connection bounce rings in the copier,
// per-response header and staging regions in the responder, per-entry
// cache bodies — each device owns one Pool that carves allocations out
// of large pre-registered slabs (RDMAbox's region allocator, PAPERS.md).
// Registration cost is paid once per slab, pinned bytes are visible and
// budgeted in one place, and per-class attribution plus leak assertions
// make "who is pinning what" a queryable fact instead of an audit.
//
// Blocks handed to remote peers (AllocRemote) are exposed through a
// verbs.MemoryWindow bound over the slab: the block advertises the
// window's (rkey, addr), and Free invalidates the window, so a peer's
// stale RDMA against a freed block faults exactly as it did when every
// buffer was its own registration — slab reuse never turns a protocol
// bug into silent corruption.
//
// The pool recycles what it carves. A freed local-only block waits on
// the pool's idle list, its carve in place, and the next Alloc that it
// holds, at no more than twice the request, takes it. Before the pool
// registers a slab or refuses a carve for the budget, it returns every
// idle block to its slab, so keeping them never pins a byte or refuses
// a carve that freeing at once would not.
package mrpool

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdmamr/internal/obs"
	"rdmamr/internal/verbs"
)

// ErrBudget is returned when an allocation would push the device's
// pinned slab bytes past the configured hard budget.
var ErrBudget = errors.New("mrpool: registered-memory budget exhausted")

// DefaultSlabBytes is the default size of one registered slab.
const DefaultSlabBytes = 8 << 20

// blockAlign keeps carves cache-line aligned; tiny allocations round up.
const blockAlign = 64

type poolKey struct{}

// For returns the device's pool, creating it on first use. One pool per
// device, kept on the device and closed by its Close: every subsystem on
// the device allocates (and is accounted) here.
func For(dev *verbs.Device) *Pool {
	return dev.Value(poolKey{}, func() any {
		return &Pool{dev: dev, slabBytes: DefaultSlabBytes}
	}).(*Pool)
}

// Pool is a per-device slab allocator over registered memory.
type Pool struct {
	dev *verbs.Device

	mu        sync.Mutex
	slabs     []*slab
	slabBytes int64
	budget    int64 // 0 = unlimited
	pinned    int64 // slab bytes registered with the device
	inUse     int64 // bytes currently allocated out
	blocks    int64 // blocks currently allocated out
	byClass   map[string]int64
	// idle holds freed local-only blocks, carves kept in place, by
	// idleClass: neither in use nor free in their slab.
	idle   [][]*Block
	closed bool

	// Handles into counters, resolved by SetCounters: a carve moves one,
	// and looks no name up. Nil until then, which counts nothing.
	hPinned, hAllocs, hFailures *obs.Counter
}

type span struct{ off, n int }

type slab struct {
	mr   *verbs.MemoryRegion
	free []span // sorted by offset, coalesced
}

// Configure sets the slab size and the hard pinned-byte budget
// (0 = unlimited). Shrinking the budget below the current pinned total
// only blocks further slab growth; nothing is deregistered.
func (p *Pool) Configure(budgetBytes, slabBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = budgetBytes
	if slabBytes > 0 {
		p.slabBytes = slabBytes
	}
}

// SetCounters mirrors the accountant into a registry's counters
// (mr.slab.bytes.pinned, mr.slab.allocs, mr.slab.failures), once: a later
// call changes nothing; a nil registry counts nothing. Pinned bytes
// registered before the first call are replayed so the gauge is
// absolute, not a partial delta.
func (p *Pool) SetCounters(c *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hPinned != nil {
		return
	}
	p.hPinned = c.Counter("mr.slab.bytes.pinned")
	p.hAllocs = c.Counter("mr.slab.allocs")
	p.hFailures = c.Counter("mr.slab.failures")
	p.hPinned.Add(p.pinned)
}

// Alloc returns an n-byte block attributed to class: an idle block that
// holds n bytes and at most 2n, or else a fresh carve. The block is
// backed by a registered slab (local lkey access via MR()+Offset()); it
// has no remote key — use AllocRemote for buffers advertised to peers.
func (p *Pool) Alloc(n int, class string) (*Block, error) {
	return p.alloc(n, class, false)
}

// AllocRemote carves a fresh block, as Alloc does when nothing idle fits,
// and binds a memory window over it, so the block has its own (rkey,
// addr) to advertise and Free revokes it.
func (p *Pool) AllocRemote(n int, class string) (*Block, error) {
	return p.alloc(n, class, true)
}

func (p *Pool) alloc(n int, class string, remote bool) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mrpool: alloc %d bytes", n)
	}
	rounded := (n + blockAlign - 1) &^ (blockAlign - 1)
	p.mu.Lock()
	var blk *Block
	if !remote {
		blk = p.reuse(rounded, n)
	}
	if blk == nil {
		s, off, err := p.carve(rounded)
		if err != nil {
			p.hFailures.Add(1)
			p.mu.Unlock()
			return nil, err
		}
		p.hAllocs.Add(1)
		blk = &Block{pool: p, slab: s, off: off, rounded: rounded}
	}
	blk.n, blk.class = n, class
	if p.byClass == nil {
		p.byClass = make(map[string]int64)
	}
	p.byClass[class] += int64(blk.rounded)
	p.inUse += int64(blk.rounded)
	p.blocks++
	p.mu.Unlock()

	if remote {
		win, err := blk.slab.mr.BindWindow(blk.off, n)
		if err != nil {
			blk.Free()
			return nil, err
		}
		blk.win = win
	}
	return blk, nil
}

// idleClass is the idle list a block of rounded bytes waits on: blocks
// from 2^c up to 2^(c+1) bytes wait on list c.
func idleClass(rounded int) int { return bits.Len(uint(rounded)) - 1 }

// reuse, under p.mu, takes the idle block freed last of those that hold
// rounded bytes and no more than 2n, or returns nil. Only lists c and
// c + 1 can hold one.
func (p *Pool) reuse(rounded, n int) *Block {
	c := idleClass(rounded)
	for k := c; k <= c+1 && k < len(p.idle); k++ {
		idle := p.idle[k]
		for i := len(idle) - 1; i >= 0; i-- {
			if b := idle[i]; b.rounded >= rounded && b.rounded <= 2*n {
				p.idle[k] = slices.Delete(idle, i, i+1)
				b.freed.Store(false)
				return b
			}
		}
	}
	return nil
}

// flush, under p.mu, returns every idle block to its slab and reports
// whether there was one.
func (p *Pool) flush() bool {
	found := false
	for c, idle := range p.idle {
		for _, b := range idle {
			b.slab.put(b.off, b.rounded)
		}
		found = found || len(idle) > 0
		clear(idle)
		p.idle[c] = idle[:0]
	}
	return found
}

// carve, under p.mu, takes rounded bytes from the end of the highest free
// span if small, from the start of the lowest if large (a ring), so small
// blocks never split a ring's hole. With no span, it returns the idle
// blocks to their slabs and looks again, and only then registers a slab.
func (p *Pool) carve(rounded int) (*slab, int, error) {
	small := int64(rounded)*16 < p.slabBytes
	for i := range p.slabs {
		if small {
			i = len(p.slabs) - 1 - i
		}
		s := p.slabs[i]
		for j := range s.free {
			if small {
				j = len(s.free) - 1 - j
			}
			if sp := &s.free[j]; sp.n >= rounded {
				off := sp.off
				if sp.n -= rounded; small {
					off += sp.n
				} else {
					sp.off += rounded
				}
				if sp.n == 0 {
					s.free = append(s.free[:j], s.free[j+1:]...)
				}
				return s, off, nil
			}
		}
	}
	if p.flush() {
		return p.carve(rounded)
	}
	size := p.slabBytes
	if 2*int64(rounded) >= size { // half a slab or more: a slab of its own
		size = int64(rounded)
	}
	if p.budget > 0 && p.pinned+size > p.budget {
		// A smaller slab might still fit under the budget.
		if remain := p.budget - p.pinned; remain >= int64(rounded) {
			size = remain
		} else {
			return nil, 0, fmt.Errorf("%w: pinned %d + slab %d > budget %d", ErrBudget, p.pinned, size, p.budget)
		}
	}
	mr, err := p.dev.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, 0, err
	}
	p.slabs = append(p.slabs, &slab{mr: mr, free: []span{{n: int(size)}}})
	p.pinned += size
	p.hPinned.Add(size)
	return p.carve(rounded)
}

// Close deregisters every slab and empties the books: the device is
// closing, and the blocks still out go with it. A Free after Close
// changes nothing, and an Alloc fails on the closed device.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, s := range p.slabs {
		_ = s.mr.Deregister()
	}
	p.hPinned.Add(-p.pinned)
	p.slabs, p.byClass, p.idle = nil, nil, nil
	p.pinned, p.inUse, p.blocks = 0, 0, 0
}

// release books b's return: a local-only block waits idle, and a remote
// one, its window revoked, goes back to its slab.
func (p *Pool) release(b *Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.inUse -= int64(b.rounded)
	p.blocks--
	p.byClass[b.class] -= int64(b.rounded)
	if b.win != nil {
		b.slab.put(b.off, b.rounded)
		return
	}
	c := idleClass(b.rounded)
	for len(p.idle) <= c {
		p.idle = append(p.idle, nil)
	}
	p.idle[c] = append(p.idle[c], b)
}

// put returns n bytes at off to the slab, under the pool's mutex. The
// free list stays sorted and coalesced, so a put only needs a binary
// search for the insertion point and a merge with at most the two
// adjacent spans — not a full re-sort.
func (s *slab) put(off, n int) {
	free := s.free
	i := sort.Search(len(free), func(i int) bool { return free[i].off > off })
	prevAdj := i > 0 && free[i-1].off+free[i-1].n == off
	nextAdj := i < len(free) && off+n == free[i].off
	switch {
	case prevAdj && nextAdj:
		free[i-1].n += n + free[i].n
		free = append(free[:i], free[i+1:]...)
	case prevAdj:
		free[i-1].n += n
	case nextAdj:
		free[i].off = off
		free[i].n += n
	default:
		free = append(free, span{})
		copy(free[i+1:], free[i:])
		free[i] = span{off: off, n: n}
	}
	s.free = free
}

// PinnedBytes reports total slab bytes registered with the device.
func (p *Pool) PinnedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinned
}

// InUseBytes reports bytes currently allocated out of the slabs; idle
// blocks are not.
func (p *Pool) InUseBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// OutstandingBlocks reports live (unfreed) blocks, idle ones not among
// them — the leak assertion:
// a drained subsystem must leave this at its pre-traffic value.
func (p *Pool) OutstandingBlocks() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocks
}

// Attribution returns a copy of the per-class in-use byte gauges.
func (p *Pool) Attribution() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.byClass))
	for k, v := range p.byClass {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// Block is one carve out of a registered slab. A local-only block that
// is freed may be handed out again by a later Alloc, the same *Block:
// its holder gives up every use of it at Free.
type Block struct {
	pool    *Pool
	slab    *slab
	off     int
	n       int
	rounded int
	win     *verbs.MemoryWindow
	class   string
	freed   atomic.Bool
}

// Bytes returns the block's memory. Capacity is clamped to the block
// length: an append past Len() must reallocate to the heap, never grow
// in place over the neighbouring carve (which belongs to another owner
// and may be posted to the fabric right now).
func (b *Block) Bytes() []byte { return b.slab.mr.Bytes()[b.off : b.off+b.n : b.off+b.n] }

// MR returns the backing slab region for local SGEs; pair with Offset.
func (b *Block) MR() *verbs.MemoryRegion { return b.slab.mr }

// Offset returns the block's offset inside MR() for local SGEs.
func (b *Block) Offset() int { return b.off }

// Len returns the requested block length.
func (b *Block) Len() int { return b.n }

// Addr returns the remote virtual address to advertise (AllocRemote
// blocks only; zero otherwise).
func (b *Block) Addr() uint64 {
	if b.win == nil {
		return 0
	}
	return b.win.Addr()
}

// RKey returns the remote protection key to advertise (AllocRemote
// blocks only; zero otherwise).
func (b *Block) RKey() uint32 {
	if b.win == nil {
		return 0
	}
	return b.win.RKey()
}

// Window exposes the bound memory window (nil for local-only blocks).
func (b *Block) Window() *verbs.MemoryWindow { return b.win }

// Freed reports whether the block has been freed and not handed out
// again.
func (b *Block) Freed() bool { return b.freed.Load() }

// Free invalidates the block's window (stale remote RDMA faults from
// here on) and returns the carve to the slab, or, for a local-only
// block, to the idle list. Double-free panics, while the block is idle:
// the accountant's books must never balance by accident.
func (b *Block) Free() {
	if !b.freed.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("mrpool: double free of %d-byte %q block", b.n, b.class))
	}
	if b.win != nil {
		_ = b.win.Invalidate()
	}
	b.pool.release(b)
}
