package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rdmamr/internal/obs"
	"rdmamr/internal/verbs"
)

func key(m, p int) CacheKey { return CacheKey{JobID: "job", MapID: m, Partition: p} }

func TestCacheHitMiss(t *testing.T) {
	c := obs.NewRegistry()
	cache := NewPrefetchCache(1000, "priority", c)
	if _, ok := cache.Get(key(0, 0)); ok {
		t.Fatal("hit on empty cache")
	}
	if !cache.Put(key(0, 0), []byte("data"), PriorityPrefetch) {
		t.Fatal("put rejected")
	}
	got, ok := cache.Get(key(0, 0))
	if !ok || string(got) != "data" {
		t.Fatalf("get: %q %v", got, ok)
	}
	if c.Counter("cache.hits").Get() != 1 || c.Counter("cache.misses").Get() != 1 {
		t.Fatalf("counters: %v", c.CounterSnapshot())
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	cache := NewPrefetchCache(10, "priority", nil)
	if cache.Put(key(0, 0), make([]byte, 11), PriorityDemand) {
		t.Fatal("entry larger than cache admitted")
	}
}

func TestCacheEvictsLowPriorityFirst(t *testing.T) {
	cache := NewPrefetchCache(100, "priority", nil)
	cache.Put(key(0, 0), make([]byte, 50), PriorityDemand)   // valuable
	cache.Put(key(1, 0), make([]byte, 50), PriorityPrefetch) // background
	// Inserting another demand entry must evict the prefetch entry.
	if !cache.Put(key(2, 0), make([]byte, 50), PriorityDemand) {
		t.Fatal("demand insert rejected")
	}
	if cache.Contains(key(1, 0)) {
		t.Fatal("low-priority entry survived")
	}
	if !cache.Contains(key(0, 0)) {
		t.Fatal("high-priority entry evicted")
	}
}

func TestCacheNeverEvictsMoreValuable(t *testing.T) {
	cache := NewPrefetchCache(100, "priority", nil)
	cache.Put(key(0, 0), make([]byte, 60), PriorityDemand)
	cache.Put(key(1, 0), make([]byte, 40), PriorityDemand)
	// A background prefetch must NOT displace demand entries.
	if cache.Put(key(2, 0), make([]byte, 50), PriorityPrefetch) {
		t.Fatal("prefetch displaced demand entries")
	}
	if !cache.Contains(key(0, 0)) || !cache.Contains(key(1, 0)) {
		t.Fatal("demand entries lost")
	}
}

func TestCacheFIFOPolicy(t *testing.T) {
	cache := NewPrefetchCache(100, "fifo", nil)
	cache.Put(key(0, 0), make([]byte, 50), PriorityDemand) // oldest
	cache.Put(key(1, 0), make([]byte, 50), PriorityPrefetch)
	// FIFO ignores priority: the oldest entry goes first.
	if !cache.Put(key(2, 0), make([]byte, 50), PriorityPrefetch) {
		t.Fatal("insert rejected")
	}
	if cache.Contains(key(0, 0)) {
		t.Fatal("FIFO did not evict oldest")
	}
	if !cache.Contains(key(1, 0)) {
		t.Fatal("FIFO evicted wrong entry")
	}
}

func TestCacheRecencyTiebreak(t *testing.T) {
	cache := NewPrefetchCache(100, "priority", nil)
	cache.Put(key(0, 0), make([]byte, 50), PriorityPrefetch)
	cache.Put(key(1, 0), make([]byte, 50), PriorityPrefetch)
	_, _ = cache.Get(key(0, 0)) // touch 0 → 1 becomes LRU
	cache.Put(key(2, 0), make([]byte, 50), PriorityPrefetch)
	if cache.Contains(key(1, 0)) {
		t.Fatal("LRU entry survived")
	}
	if !cache.Contains(key(0, 0)) {
		t.Fatal("recently used entry evicted")
	}
}

func TestCacheRefreshInPlace(t *testing.T) {
	cache := NewPrefetchCache(100, "priority", nil)
	cache.Put(key(0, 0), make([]byte, 30), PriorityPrefetch)
	cache.Put(key(0, 0), make([]byte, 60), PriorityDemand)
	if cache.Used() != 60 || cache.Len() != 1 {
		t.Fatalf("used=%d len=%d", cache.Used(), cache.Len())
	}
}

func TestCacheRemoveJob(t *testing.T) {
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.Put(CacheKey{JobID: "a", MapID: 0, Partition: 0}, make([]byte, 10), 0)
	cache.Put(CacheKey{JobID: "b", MapID: 0, Partition: 0}, make([]byte, 10), 0)
	cache.RemoveJob("a")
	if cache.Contains(CacheKey{JobID: "a", MapID: 0, Partition: 0}) {
		t.Fatal("job a survived removal")
	}
	if !cache.Contains(CacheKey{JobID: "b", MapID: 0, Partition: 0}) {
		t.Fatal("job b removed")
	}
	if cache.Used() != 10 {
		t.Fatalf("used = %d", cache.Used())
	}
}

func TestCacheConcurrent(t *testing.T) {
	cache := NewPrefetchCache(1<<20, "priority", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(w, i%10)
				cache.Put(k, make([]byte, 100), i%2)
				cache.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if cache.Used() > 1<<20 {
		t.Fatal("capacity exceeded")
	}
}

func TestCacheBadPolicyFallsBack(t *testing.T) {
	cache := NewPrefetchCache(100, "bogus", nil)
	if cache.policy != "priority" {
		t.Fatalf("policy = %q", cache.policy)
	}
}

// jobPrefix reports whether key belongs to the given job (helper for
// tests; matches RemoveJob semantics).
func (k CacheKey) jobPrefix(jobID string) bool { return strings.HasPrefix(k.JobID, jobID) }

func TestCacheKeyJobPrefix(t *testing.T) {
	k := CacheKey{JobID: "job_1", MapID: 0, Partition: 0}
	if !k.jobPrefix("job_1") || k.jobPrefix("job_2") {
		t.Fatal("jobPrefix broken")
	}
}

func TestCacheManyJobsIsolated(t *testing.T) {
	cache := NewPrefetchCache(1<<20, "priority", nil)
	for j := 0; j < 5; j++ {
		for m := 0; m < 10; m++ {
			cache.Put(CacheKey{JobID: fmt.Sprintf("j%d", j), MapID: m}, make([]byte, 10), 0)
		}
	}
	cache.RemoveJob("j3")
	if cache.Len() != 40 {
		t.Fatalf("len = %d, want 40", cache.Len())
	}
}

// TestCacheModelProperty drives the cache with random operation sequences
// and cross-checks against a naive model: capacity never exceeded,
// contents always a subset of what the model says could be present, and
// Used always equals the sum of present entry sizes.
func TestCacheModelProperty(t *testing.T) {
	f := func(ops []uint8, capRaw uint16) bool {
		capacity := int64(capRaw%2000) + 100
		cache := NewPrefetchCache(capacity, "priority", nil)
		model := map[CacheKey]int{} // entries the cache admitted (upper bound)
		for i, op := range ops {
			k := CacheKey{JobID: fmt.Sprintf("j%d", op%2), MapID: int(op % 7), Partition: int(op % 3)}
			switch op % 4 {
			case 0: // put
				size := int(op%50) + 1
				if cache.Put(k, make([]byte, size), int(op%2)) {
					model[k] = size
				} else {
					delete(model, k)
				}
			case 1, 2: // get
				if data, ok := cache.Get(k); ok {
					if _, could := model[k]; !could {
						t.Logf("op %d: hit on key the model never admitted", i)
						return false
					}
					if len(data) != model[k] {
						return false
					}
				}
			case 3: // remove job
				cache.RemoveJob(k.JobID)
				for mk := range model {
					if mk.JobID == k.JobID {
						delete(model, mk)
					}
				}
			}
			if cache.Used() > capacity {
				return false
			}
			if cache.Len() > len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Bytes returns the cached run. Treat as read-only.
func (v *CacheView) Bytes() []byte { return v.body.data }

// MR returns the slab region backing Bytes, or nil when the entry was
// cached without registration (no registrar, or the slab budget rejected
// it); the responder then serves it eagerly through the staging copy.
func (v *CacheView) MR() *verbs.MemoryRegion {
	if v.body.blk == nil {
		return nil
	}
	return v.body.blk.MR()
}

// Addr is the remote virtual address of Bytes[0] — the base one-sided
// READ descriptors are built against (zero when unregistered).
func (v *CacheView) Addr() uint64 {
	if v.body.blk == nil {
		return 0
	}
	return v.body.blk.Addr()
}

// RKey is the revocable window key advertised with Addr (zero when
// unregistered).
func (v *CacheView) RKey() uint32 {
	if v.body.blk == nil {
		return 0
	}
	return v.body.blk.RKey()
}

// Used returns the current cached byte total.
func (c *PrefetchCache) Used() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}
