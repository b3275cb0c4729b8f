package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rdmamr/internal/mrpool"
	"rdmamr/internal/verbs"
)

// trackingRegistrar carves from a real slab pool on an emulated device
// and remembers every block it handed out, so tests can assert exactly
// when each one was freed (and its window revoked).
type trackingRegistrar struct {
	pool *mrpool.Pool
	mu   sync.Mutex
	blks []*mrpool.Block
}

func newTrackingRegistrar(t *testing.T) *trackingRegistrar {
	t.Helper()
	dev, err := verbs.NewNetwork().NewDevice("cache-test")
	if err != nil {
		t.Fatal(err)
	}
	return &trackingRegistrar{pool: mrpool.For(dev)}
}

func (r *trackingRegistrar) AllocRemote(n int, class string) (*mrpool.Block, error) {
	blk, err := r.pool.AllocRemote(n, class)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.blks = append(r.blks, blk)
	r.mu.Unlock()
	return blk, nil
}

// last returns the most recently carved block.
func (r *trackingRegistrar) last(t *testing.T) *mrpool.Block {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.blks) == 0 {
		t.Fatal("registrar was never asked for a block")
	}
	return r.blks[len(r.blks)-1]
}

func (r *trackingRegistrar) liveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, blk := range r.blks {
		if !blk.Freed() {
			n++
		}
	}
	return n
}

func TestCachePutRegistersEntries(t *testing.T) {
	reg := newTrackingRegistrar(t)
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.SetRegistrar(reg)
	if !cache.Put(key(0, 0), []byte("registered bytes"), PriorityPrefetch) {
		t.Fatal("put rejected")
	}
	v, ok := cache.Acquire(key(0, 0))
	if !ok {
		t.Fatal("acquire missed")
	}
	defer v.Release()
	if v.MR() == nil {
		t.Fatal("cached entry has no memory region despite registrar")
	}
	if !bytes.Equal(v.Bytes(), []byte("registered bytes")) {
		t.Fatalf("view bytes = %q", v.Bytes())
	}
	// The entry advertises a revocable window over exactly its carve.
	if v.RKey() == 0 || v.Addr() == 0 {
		t.Fatal("registered entry has no advertisable rkey/addr")
	}
	if v.RKey() == v.MR().RKey() {
		t.Fatal("entry advertises the raw slab rkey — eviction could not revoke it")
	}
}

func TestCacheNoRegistrarServesNilMR(t *testing.T) {
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.Put(key(0, 0), []byte("plain"), PriorityPrefetch)
	v, ok := cache.Acquire(key(0, 0))
	if !ok {
		t.Fatal("acquire missed")
	}
	defer v.Release()
	if v.MR() != nil {
		t.Fatal("unexpected region without registrar")
	}
	if v.RKey() != 0 || v.Addr() != 0 {
		t.Fatal("unregistered entry advertises remote access")
	}
	if string(v.Bytes()) != "plain" {
		t.Fatalf("bytes = %q", v.Bytes())
	}
}

// TestCachePinnedEntrySurvivesEviction: an in-flight send's view keeps
// the bytes valid and the block pinned after the entry is evicted; the
// block is freed (and its window revoked) only on the last Release.
func TestCachePinnedEntrySurvivesEviction(t *testing.T) {
	reg := newTrackingRegistrar(t)
	cache := NewPrefetchCache(100, "priority", nil)
	cache.SetRegistrar(reg)
	cache.Put(key(0, 0), bytes.Repeat([]byte{'x'}, 60), PriorityPrefetch)
	v, ok := cache.Acquire(key(0, 0))
	if !ok {
		t.Fatal("acquire missed")
	}
	blk := reg.last(t)
	// Force eviction of the pinned entry.
	cache.Put(key(1, 0), make([]byte, 80), PriorityDemand)
	if cache.Contains(key(0, 0)) {
		t.Fatal("entry not evicted")
	}
	if blk.Freed() {
		t.Fatal("block freed while pinned")
	}
	for _, b := range v.Bytes() {
		if b != 'x' {
			t.Fatal("pinned bytes corrupted after eviction")
		}
	}
	win := blk.Window()
	v.Release()
	if !blk.Freed() {
		t.Fatal("block survived last release")
	}
	if !win.Dead() {
		t.Fatal("window survived last release: stale READs would hit reused slab bytes")
	}
	v.Release() // idempotent
}

func TestCachePinnedEntrySurvivesRemoveJob(t *testing.T) {
	reg := newTrackingRegistrar(t)
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.SetRegistrar(reg)
	cache.Put(key(0, 0), []byte("job data"), PriorityPrefetch)
	v1, _ := cache.Acquire(key(0, 0))
	v2, _ := cache.Acquire(key(0, 0))
	blk := reg.last(t)
	cache.RemoveJob("job")
	if cache.Len() != 0 {
		t.Fatal("job not removed")
	}
	if blk.Freed() {
		t.Fatal("block freed with two pins outstanding")
	}
	v1.Release()
	if blk.Freed() {
		t.Fatal("block freed with one pin outstanding")
	}
	v2.Release()
	if !blk.Freed() {
		t.Fatal("block survived last release")
	}
}

func TestCacheRefreshKeepsOldBodyForPinnedReaders(t *testing.T) {
	reg := newTrackingRegistrar(t)
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.SetRegistrar(reg)
	cache.Put(key(0, 0), []byte("old-bytes"), PriorityPrefetch)
	v, _ := cache.Acquire(key(0, 0))
	oldBlk := reg.last(t)
	cache.Put(key(0, 0), []byte("new-bytes!"), PriorityDemand)
	if string(v.Bytes()) != "old-bytes" {
		t.Fatalf("pinned view mutated by refresh: %q", v.Bytes())
	}
	if oldBlk.Freed() {
		t.Fatal("old block freed while pinned")
	}
	if got, _ := cache.Get(key(0, 0)); string(got) != "new-bytes!" {
		t.Fatalf("refresh lost: %q", got)
	}
	v.Release()
	if !oldBlk.Freed() {
		t.Fatal("old block leaked after release")
	}
}

// TestCacheZeroCopyStress races pinned readers against evicting writers
// and RemoveJob (run under -race): every view's bytes stay intact for the
// life of the pin, and when the dust settles the only live blocks are
// the entries still resident in the cache — the slab accountant's leak
// assertion over cache churn.
func TestCacheZeroCopyStress(t *testing.T) {
	reg := newTrackingRegistrar(t)
	cache := NewPrefetchCache(4096, "priority", nil)
	cache.SetRegistrar(reg)
	const (
		readers = 6
		writers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := CacheKey{JobID: fmt.Sprintf("j%d", i%3), MapID: w, Partition: i % 5}
				data := bytes.Repeat([]byte{byte('a' + w)}, 64+i%128)
				cache.Put(k, data, i%2)
				if i%37 == 0 {
					cache.RemoveJob(fmt.Sprintf("j%d", i%3))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := CacheKey{JobID: fmt.Sprintf("j%d", i%3), MapID: i % writers, Partition: i % 5}
				v, ok := cache.Acquire(k)
				if !ok {
					continue
				}
				b := v.Bytes()
				if len(b) > 0 {
					first := b[0]
					for _, c := range b {
						if c != first {
							t.Errorf("pinned view bytes not uniform: %q vs %q", c, first)
							break
						}
					}
				}
				v.Release()
			}
		}(r)
	}
	wg.Wait()
	if live, resident := reg.liveCount(), cache.Len(); live != resident {
		t.Fatalf("%d live blocks but %d resident entries: free leak", live, resident)
	}
	if outstanding := reg.pool.OutstandingBlocks(); int(outstanding) != cache.Len() {
		t.Fatalf("pool reports %d outstanding blocks, cache holds %d entries", outstanding, cache.Len())
	}
}

// budgetRegistrar refuses every carve the way an exhausted slab budget
// does.
type budgetRegistrar struct{}

func (budgetRegistrar) AllocRemote(n int, class string) (*mrpool.Block, error) {
	return nil, fmt.Errorf("%w: test", mrpool.ErrBudget)
}

// TestCachePutNeverKeepsCallersSlice: Put is handed borrowed bytes by the
// prefetcher (LocalStore.View), so whichever way it stores them — in a
// registered block, or unregistered because there is no registrar or the
// budget said no — the entry must be a copy the caller cannot reach.
func TestCachePutNeverKeepsCallersSlice(t *testing.T) {
	for name, reg := range map[string]Registrar{
		"registered":   newTrackingRegistrar(t),
		"no registrar": nil,
		"ErrBudget":    budgetRegistrar{},
	} {
		cache := NewPrefetchCache(1000, "priority", nil)
		if reg != nil {
			cache.SetRegistrar(reg)
		}
		lent := []byte("bytes the store still owns")
		if !cache.Put(key(0, 0), lent, PriorityPrefetch) {
			t.Fatalf("%s: put rejected", name)
		}
		for i := range lent {
			lent[i] = 'X' // the store's object is replaced and reused
		}
		v, ok := cache.Acquire(key(0, 0))
		if !ok {
			t.Fatalf("%s: acquire missed", name)
		}
		if string(v.Bytes()) != "bytes the store still owns" {
			t.Fatalf("%s: cached entry aliases the caller's slice: %q", name, v.Bytes())
		}
		if registered := v.MR() != nil; registered != (name == "registered") {
			t.Fatalf("%s: entry registered = %v", name, registered)
		}
		v.Release()
	}
}
