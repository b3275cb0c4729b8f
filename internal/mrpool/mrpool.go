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
package mrpool

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"rdmamr/internal/obs"
	"rdmamr/internal/stats"
	"rdmamr/internal/verbs"
)

// ErrBudget is returned when an allocation would push the device's
// pinned slab bytes past the configured hard budget.
var ErrBudget = errors.New("mrpool: registered-memory budget exhausted")

// DefaultSlabBytes is the default size of one registered slab.
const DefaultSlabBytes = 8 << 20

// blockAlign keeps carves cache-line aligned; tiny allocations round up.
const blockAlign = 64

var pools sync.Map // *verbs.Device → *Pool

// For returns the device's pool, creating it on first use. One pool per
// device for the life of the process: every subsystem on the device
// allocates (and is accounted) here.
func For(dev *verbs.Device) *Pool {
	if p, ok := pools.Load(dev); ok {
		return p.(*Pool)
	}
	p, _ := pools.LoadOrStore(dev, &Pool{dev: dev, slabBytes: DefaultSlabBytes})
	return p.(*Pool)
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

	counters *stats.Counters
	cPinned  int64 // pinned bytes already mirrored into counters
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

// SetCounters mirrors the accountant into a counter set
// (mr.slab.bytes.pinned, mr.slab.allocs, mr.slab.failures). Pinned
// bytes registered before the call are replayed so the gauge is
// absolute, not a partial delta.
func (p *Pool) SetCounters(c *stats.Counters) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c == nil || p.counters == c {
		return
	}
	p.counters = c
	p.hPinned = c.Handle("mr.slab.bytes.pinned")
	p.hAllocs = c.Handle("mr.slab.allocs")
	p.hFailures = c.Handle("mr.slab.failures")
	p.hPinned.Add(p.pinned - p.cPinned)
	p.cPinned = p.pinned
}

// Alloc carves an n-byte block attributed to class. The block is backed
// by a registered slab (local lkey access via MR()+Offset()); it has no
// remote key — use AllocRemote for buffers advertised to peers.
func (p *Pool) Alloc(n int, class string) (*Block, error) {
	return p.alloc(n, class, false)
}

// AllocRemote is Alloc plus a memory window bound over the carve, so
// the block has its own (rkey, addr) to advertise and Free revokes it.
func (p *Pool) AllocRemote(n int, class string) (*Block, error) {
	return p.alloc(n, class, true)
}

func (p *Pool) alloc(n int, class string, remote bool) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mrpool: alloc %d bytes", n)
	}
	rounded := (n + blockAlign - 1) &^ (blockAlign - 1)
	p.mu.Lock()
	s, off, err := p.carve(rounded)
	if err != nil {
		p.hFailures.Add(1)
		p.mu.Unlock()
		return nil, err
	}
	p.inUse += int64(rounded)
	p.blocks++
	if p.byClass == nil {
		p.byClass = make(map[string]int64)
	}
	p.byClass[class] += int64(rounded)
	p.hAllocs.Add(1)
	p.mu.Unlock()

	blk := &Block{pool: p, slab: s, off: off, n: n, rounded: rounded, class: class}
	if remote {
		win, err := s.mr.BindWindow(off, n)
		if err != nil {
			blk.Free()
			return nil, err
		}
		blk.win = win
	}
	return blk, nil
}

// carve finds (or registers) a slab with a free span of rounded bytes.
// Caller holds p.mu.
func (p *Pool) carve(rounded int) (*slab, int, error) {
	for _, s := range p.slabs {
		for i, sp := range s.free {
			if sp.n >= rounded {
				off := sp.off
				if sp.n == rounded {
					s.free = append(s.free[:i], s.free[i+1:]...)
				} else {
					s.free[i] = span{off: sp.off + rounded, n: sp.n - rounded}
				}
				return s, off, nil
			}
		}
	}
	size := p.slabBytes
	if int64(rounded) > size {
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
	s := &slab{mr: mr}
	if int(size) > rounded {
		s.free = []span{{off: rounded, n: int(size) - rounded}}
	}
	p.slabs = append(p.slabs, s)
	p.pinned += size
	if p.counters != nil {
		p.hPinned.Add(size)
		p.cPinned = p.pinned
	}
	return s, 0, nil
}

func (p *Pool) release(b *Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The free list stays sorted and coalesced, so a release only needs
	// a binary search for the insertion point and a merge with at most
	// the two adjacent spans — not a full re-sort (release runs under
	// the pool mutex on responder hot paths).
	free := b.slab.free
	i := sort.Search(len(free), func(i int) bool { return free[i].off > b.off })
	prevAdj := i > 0 && free[i-1].off+free[i-1].n == b.off
	nextAdj := i < len(free) && b.off+b.rounded == free[i].off
	switch {
	case prevAdj && nextAdj:
		free[i-1].n += b.rounded + free[i].n
		free = append(free[:i], free[i+1:]...)
	case prevAdj:
		free[i-1].n += b.rounded
	case nextAdj:
		free[i].off = b.off
		free[i].n += b.rounded
	default:
		free = append(free, span{})
		copy(free[i+1:], free[i:])
		free[i] = span{off: b.off, n: b.rounded}
	}
	b.slab.free = free
	p.inUse -= int64(b.rounded)
	p.blocks--
	p.byClass[b.class] -= int64(b.rounded)
}

// PinnedBytes reports total slab bytes registered with the device.
func (p *Pool) PinnedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinned
}

// InUseBytes reports bytes currently allocated out of the slabs.
func (p *Pool) InUseBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// OutstandingBlocks reports live (unfreed) blocks — the leak assertion:
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

// Block is one carve out of a registered slab.
type Block struct {
	pool    *Pool
	slab    *slab
	off     int
	n       int
	rounded int
	win     *verbs.MemoryWindow
	class   string

	mu    sync.Mutex
	freed bool
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

// Freed reports whether the block has been returned to its slab.
func (b *Block) Freed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.freed
}

// Free invalidates the block's window (stale remote RDMA faults from
// here on) and returns the carve to the slab. Double-free panics: the
// accountant's books must never balance by accident.
func (b *Block) Free() {
	b.mu.Lock()
	if b.freed {
		b.mu.Unlock()
		panic(fmt.Sprintf("mrpool: double free of %d-byte %q block", b.n, b.class))
	}
	b.freed = true
	b.mu.Unlock()
	if b.win != nil {
		_ = b.win.Invalidate()
	}
	b.pool.release(b)
}
