// Package core implements the paper's primary contribution: the OSU-IB
// RDMA-based MapReduce shuffle engine (§III-B). On the TaskTracker side it
// provides the RDMAListener and one RDMAReceiver per connection that
// serves its own requests in order — the DataRequestQueue is that
// connection's receive queue and the RDMAResponder pool a bound on
// requests in service (DESIGN.md D19) — plus the MapOutputPrefetcher
// daemon pool feeding the PrefetchCache (§III-B.3). On the ReduceTask
// side it provides the RDMACopier and the chunked priority-queue merge
// over refillable segments (§III-B.2), which the reduce function pulls
// directly — the paper's DataToReduceQueue is a function call here
// (internal/shuffle/stream, DESIGN.md D17) — so shuffle, merge and reduce
// overlap (§III-B.4). Bulk data moves by RDMA writes into the copier's
// registered buffers over the emulated verbs fabric.
package core

import (
	"container/heap"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"rdmamr/internal/mrpool"
	"rdmamr/internal/obs"
	"rdmamr/internal/stats"
	"rdmamr/internal/storage"
	"rdmamr/internal/verbs"
)

// CacheKey identifies one cached map output partition.
type CacheKey struct {
	JobID     string
	MapID     int
	Partition int
}

// Cache priorities. Demand-missed partitions are re-cached with high
// priority so "successive requests for this output file can be served
// from the cache" (§III-B.3).
const (
	PriorityPrefetch = 0 // background prefetch after map completion
	PriorityDemand   = 1 // re-cache after a demand miss
)

// Registrar supplies registered backing store for cache entry bodies so
// a manifest can advertise them to copier READs with no staging copy
// (D8). Since D13 it is satisfied by *mrpool.Pool: entries carve
// window-advertised blocks out of the device's slab pool instead of
// registering each body as its own region.
type Registrar interface {
	AllocRemote(n int, class string) (*mrpool.Block, error)
}

// cacheBody is the immutable backing store of one cache entry: the bytes,
// the slab block carved for them (nil when no registrar is wired or the
// slab budget rejected them), and a reference count. The cache itself
// holds one reference for as long as the entry is in the map; every
// pinned CacheView, read lease and eager serve holds another. The block
// is freed only when the last reference drops, so a remote READ lease
// keeps its source bytes pinned even if the entry is evicted
// mid-transfer — and the block's window invalidates at that same
// instant, so a READ arriving later faults instead of observing reused
// slab bytes.
//
// An adopted body (D24) is a map output run encoded straight into its
// block: the store holds it pinned under name and owns one more
// reference, dropped through Release when the store lets go of it.
type cacheBody struct {
	data []byte
	blk  *mrpool.Block
	refs atomic.Int32

	store *storage.LocalStore // the store holding an adopted body; nil for a Put copy
	name  string              // its name there
}

// Release drops one reference. It is also the storage.Pinned hook the
// store calls when it lets go of an adopted run.
func (b *cacheBody) Release() {
	if n := b.refs.Add(-1); n == 0 {
		if b.blk != nil {
			b.blk.Free()
		}
	} else if n < 0 {
		panic("core: cacheBody over-released")
	}
}

// retain takes a reference on a body whose other holders may be letting
// go of it concurrently, and reports false once the last one has.
func (b *cacheBody) retain() bool {
	for {
		n := b.refs.Load()
		if n <= 0 {
			return false
		}
		if b.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// CacheView is a pinned, read-only view of a cached partition. Bytes stay
// valid and (when MR is non-nil) registered until Release. Views are not
// safe for concurrent use by multiple goroutines.
type CacheView struct {
	body *cacheBody
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

// Release drops the pin. Idempotent on the same view.
func (v *CacheView) Release() {
	if v.body == nil {
		return
	}
	v.body.Release()
	v.body = nil
}

// PrefetchCache is the TaskTracker-side intermediate-data cache: a
// byte-capacity-bounded store of map output partitions. Eviction policy
// is configurable: "priority" (evict lowest priority, then least recently
// demanded — the paper's adaptive mode) or "fifo" (insertion order, the
// ablation baseline).
//
// The key space is partitioned across independently locked shards (shard
// count derived from capacity) so responder threads serving different
// partitions do not serialize on one mutex; each shard owns a slice of
// the byte budget. Small caches collapse to a single shard and keep the
// exact global eviction semantics.
type PrefetchCache struct {
	policy    string
	counters  *stats.Counters
	shards    []*cacheShard
	regMu     sync.Mutex
	registrar Registrar

	// cHits and cMisses are cache.hits and cache.misses, which every
	// lookup moves, resolved once.
	cHits, cMisses *obs.Counter

	// Multi-tenant accounting (D12): tenants tracks cached bytes per job
	// across every shard; quota, when >0, caps any one job's share of the
	// registered-memory budget. Lock order is shard.mu -> tmu; tmu is a
	// leaf lock and no code path acquires a shard lock while holding it.
	tmu     sync.Mutex
	quota   int64
	tenants map[string]int64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[CacheKey]*cacheEntry
	seq      uint64
}

type cacheEntry struct {
	key      CacheKey
	body     *cacheBody
	priority int
	inserted uint64 // seq at insert (FIFO order)
	lastUse  uint64 // seq at last hit (recency)
	index    int    // heap index
}

// shardsFor sizes the shard array: one shard per 64 MB of capacity,
// clamped to [1, 16]. The paper-default 256 MB cache gets 4 shards;
// test-sized caches get 1 and retain single-lock semantics.
func shardsFor(capacity int64) int {
	n := int(capacity / (64 << 20))
	if n < 1 {
		return 1
	}
	if n > 16 {
		return 16
	}
	return n
}

// NewPrefetchCache returns a cache bounded to capacity bytes. policy is
// "priority" or "fifo"; counters may be nil.
func NewPrefetchCache(capacity int64, policy string, counters *stats.Counters) *PrefetchCache {
	if counters == nil {
		counters = &stats.Counters{}
	}
	if policy != "priority" && policy != "fifo" {
		policy = "priority"
	}
	n := shardsFor(capacity)
	c := &PrefetchCache{policy: policy, counters: counters, shards: make([]*cacheShard, n), tenants: make(map[string]int64)}
	c.cHits, c.cMisses = counters.Handle("cache.hits"), counters.Handle("cache.misses")
	per := capacity / int64(n)
	for i := range c.shards {
		cap := per
		if i == 0 {
			cap += capacity - per*int64(n) // shard 0 absorbs the remainder
		}
		c.shards[i] = &cacheShard{capacity: cap, entries: make(map[CacheKey]*cacheEntry)}
	}
	return c
}

// SetRegistrar wires the device used to register entries at Put time.
// Entries inserted before the registrar is set (or while it is nil) are
// cached unregistered and served through the staging path.
func (c *PrefetchCache) SetRegistrar(r Registrar) {
	c.regMu.Lock()
	c.registrar = r
	c.regMu.Unlock()
}

func (c *PrefetchCache) getRegistrar() Registrar {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return c.registrar
}

// SetJobQuota caps how many cached bytes any single job may hold
// (mapred.jobtracker.cache.job.quota.bytes). Zero disables per-job
// isolation: tenants then compete for the whole budget on entry value
// alone. The quota applies at Put time; already-resident entries of a
// tenant that shrank its quota are evicted preferentially (they make the
// tenant "over quota" in victim selection) rather than synchronously.
func (c *PrefetchCache) SetJobQuota(quota int64) {
	c.tmu.Lock()
	c.quota = quota
	c.tmu.Unlock()
}

// JobBytes returns the cached byte total currently charged to jobID
// across every shard.
func (c *PrefetchCache) JobBytes(jobID string) int64 {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	return c.tenants[jobID]
}

func (c *PrefetchCache) jobQuota() int64 {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	return c.quota
}

func (c *PrefetchCache) tenantAdd(jobID string, delta int64) {
	c.tmu.Lock()
	n := c.tenants[jobID] + delta
	if n <= 0 {
		delete(c.tenants, jobID)
	} else {
		c.tenants[jobID] = n
	}
	c.tmu.Unlock()
}

func (c *PrefetchCache) shard(key CacheKey) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key.JobID))
	var b [8]byte
	b[0], b[1], b[2], b[3] = byte(key.MapID), byte(key.MapID>>8), byte(key.MapID>>16), byte(key.MapID>>24)
	b[4], b[5], b[6], b[7] = byte(key.Partition), byte(key.Partition>>8), byte(key.Partition>>16), byte(key.Partition>>24)
	_, _ = h.Write(b[:])
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached partition and whether it was present, recording
// a hit or miss. The returned slice is read-only and unpinned: once the
// entry is evicted or its job removed, a slab-backed body's block may be
// freed and its span carved for another writer, so the bytes are only
// good while the entry stays cached. Anything that reads them past that
// point pins the body first (Acquire, or the responder's eager lookup).
func (c *PrefetchCache) Get(key CacheKey) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		c.cMisses.Add(1)
		return nil, false
	}
	s.seq++
	e.lastUse = s.seq
	c.cHits.Add(1)
	return e.body.data, true
}

// Acquire is Get returning a pinned view: the entry's bytes stay
// registered until the view is released, even across eviction or
// RemoveJob. The responder parks the view in a read lease for as long
// as a published manifest may still be READ.
func (c *PrefetchCache) Acquire(key CacheKey) (*CacheView, bool) {
	body, ok := c.pin(key)
	if !ok {
		return nil, false
	}
	return &CacheView{body: body}, true
}

// pin is Acquire without the view: it returns the entry's body holding a
// reference the caller drops with Release, recording a hit or miss.
func (c *PrefetchCache) pin(key CacheKey) (*cacheBody, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		c.cMisses.Add(1)
		return nil, false
	}
	s.seq++
	e.lastUse = s.seq
	e.body.refs.Add(1) // safe: map presence implies the cache's own ref
	c.cHits.Add(1)
	return e.body, true
}

// Contains reports presence without counting a hit or miss (used by the
// prefetcher to skip redundant work).
func (c *PrefetchCache) Contains(key CacheKey) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put inserts a partition at the given priority, evicting lower-value
// entries as needed ("depending on heap size availability it can limit
// the amount of data to be cached"). It reports whether the entry was
// admitted: an entry larger than the whole cache (shard), or one that
// would require evicting strictly more valuable entries, is rejected.
// When a registrar is wired the bytes are registered here, once, so every
// subsequent request against this entry can be answered by manifest.
//
// The cache always keeps its own copy of data, never the slice itself,
// so a caller may pass bytes it only borrowed (LocalStore.Get).
func (c *PrefetchCache) Put(key CacheKey, data []byte, priority int) bool {
	body := &cacheBody{}
	body.refs.Store(1) // the cache's own reference
	if r := c.getRegistrar(); r != nil && len(data) > 0 {
		// Carve a window-advertised block from the device's slab pool and
		// copy the bytes into it, so the entry serves one-sided READs
		// without its own registration. On budget rejection the entry
		// caches unregistered (served eagerly) — degraded, not dead.
		if blk, err := r.AllocRemote(len(data), "cache"); err == nil {
			body.blk = blk
			body.data = blk.Bytes()
			copy(body.data, data)
		}
	}
	if body.blk == nil {
		body.data = slices.Clone(data)
	}
	return c.insert(key, body, priority)
}

// adopt is Put by ownership transfer (D24): body is a map output run
// encoded straight into its registered block and held pinned by the
// store, and the entry takes over the caller's reference to it — no copy.
// A run the cache refuses is demoted at once, so registered map output
// never outgrows the cache's capacity plus the pins in flight.
func (c *PrefetchCache) adopt(key CacheKey, body *cacheBody) bool {
	if !c.insert(key, body, PriorityPrefetch) {
		return false
	}
	c.counters.Add("cache.adopted", 1)
	return true
}

// insert admits body under key at priority, holding the caller's
// reference to it; a body it refuses is dropped.
func (c *PrefetchCache) insert(key CacheKey, body *cacheBody, priority int) bool {
	size := int64(len(body.data))
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.capacity {
		return c.reject(body)
	}
	if old, ok := s.entries[key]; ok {
		if old.body == body {
			body.Release() // adopted twice: the entry already holds a reference
			return true
		}
		// Refresh by body swap; keep the higher priority. The old body
		// is dropped (pinned readers keep it alive) rather than mutated.
		s.used += size - int64(len(old.body.data))
		c.tenantAdd(key.JobID, size-int64(len(old.body.data)))
		c.drop(old.body)
		old.body = body
		if priority > old.priority {
			old.priority = priority
		}
		s.seq++
		old.lastUse = s.seq
		s.evictLocked(c, nil)
		return true
	}
	// Per-job quota (D12): a tenant over its registered-memory budget
	// evicts its OWN least valuable entries to make room, never another
	// job's — noisy neighbors pay for their churn themselves.
	if quota := c.jobQuota(); quota > 0 {
		if size > quota {
			return c.reject(body)
		}
		for c.JobBytes(key.JobID)+size > quota {
			victim := s.tenantVictimLocked(c, key.JobID)
			if victim == nil {
				// The tenant's remaining bytes live in other shards;
				// reject rather than breach the budget or reach across
				// shard locks.
				return c.reject(body)
			}
			c.drop(s.removeLocked(c, victim))
			c.counters.Add("cache.quota.evictions", 1)
		}
	}
	s.seq++
	e := &cacheEntry{key: key, body: body, priority: priority, inserted: s.seq, lastUse: s.seq}
	// Evict until the new entry fits, but never evict entries more
	// valuable than the incoming one — unless the victim's tenant is over
	// its quota, in which case reclaiming its surplus trumps entry value.
	for s.used+size > s.capacity {
		victim, victimOver := s.victimLocked(c)
		if victim == nil || (!victimOver && c.less(e, victim)) {
			return c.reject(body)
		}
		c.drop(s.removeLocked(c, victim))
		c.counters.Add("cache.evictions", 1)
	}
	s.entries[key] = e
	s.used += size
	c.tenantAdd(key.JobID, size)
	c.counters.Add("cache.inserted", 1)
	return true
}

// reject refuses admission to body and drops it.
func (c *PrefetchCache) reject(body *cacheBody) bool {
	c.counters.Add("cache.rejected", 1)
	c.drop(body)
	return false
}

// drop releases the cache's reference to a body it is giving up under
// pressure — evicted, refused or refreshed away. An adopted body is
// demoted first: the store swaps in a heap copy, if its name still holds
// this run, and lets go of the block. RemoveJob releases without
// demoting, because the job's outputs are deleted next. Lock order is
// shard.mu -> the store's lock; the store never calls back into the
// cache under its own.
func (c *PrefetchCache) drop(body *cacheBody) {
	if body.store != nil && body.store.Demote(body.name, body) {
		c.counters.Add("cache.demoted", 1)
	}
	body.Release()
}

// Promote raises an entry's priority (after a demand miss on a sibling
// partition, successive requests favor keeping this map's data).
func (c *PrefetchCache) Promote(key CacheKey, priority int) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok && priority > e.priority {
		e.priority = priority
	}
}

// less orders entries by eviction value: true if a is less valuable
// (evicted earlier) than b.
func (c *PrefetchCache) less(a, b *cacheEntry) bool {
	if c.policy == "fifo" {
		return a.inserted < b.inserted
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.lastUse < b.lastUse
}

// victimLocked returns the shard's least valuable entry (nil when
// empty) and whether that entry's tenant is over its job quota. With a
// quota set, entries of over-quota tenants are always preferred as
// victims over entries of compliant tenants, regardless of value: the
// surplus is memory the tenant was never entitled to keep.
func (s *cacheShard) victimLocked(c *PrefetchCache) (*cacheEntry, bool) {
	quota := c.jobQuota()
	var victim *cacheEntry
	victimOver := false
	for _, e := range s.entries {
		over := quota > 0 && c.JobBytes(e.key.JobID) > quota
		switch {
		case victim == nil,
			over && !victimOver,
			over == victimOver && c.less(e, victim):
			victim, victimOver = e, over
		}
	}
	return victim, victimOver
}

// tenantVictimLocked returns the shard's least valuable entry belonging
// to jobID (nil when the tenant has no entries in this shard).
func (s *cacheShard) tenantVictimLocked(c *PrefetchCache, jobID string) *cacheEntry {
	var victim *cacheEntry
	for _, e := range s.entries {
		if e.key.JobID != jobID {
			continue
		}
		if victim == nil || c.less(e, victim) {
			victim = e
		}
	}
	return victim
}

// removeLocked takes e out of the shard and returns its body, whose cache
// reference the caller then drops or releases.
func (s *cacheShard) removeLocked(c *PrefetchCache, e *cacheEntry) *cacheBody {
	delete(s.entries, e.key)
	s.used -= int64(len(e.body.data))
	c.tenantAdd(e.key.JobID, -int64(len(e.body.data)))
	return e.body
}

// evictLocked trims the shard to capacity (after in-place refresh
// growth). protect is never evicted.
func (s *cacheShard) evictLocked(c *PrefetchCache, protect *cacheEntry) {
	for s.used > s.capacity {
		victim, _ := s.victimLocked(c)
		if victim == nil || victim == protect {
			return
		}
		c.drop(s.removeLocked(c, victim))
		c.counters.Add("cache.evictions", 1)
	}
}

// RemoveJob drops every entry belonging to jobID (job completion) and
// returns the tenant's registered memory to the shared pool; the bytes
// reclaimed are summed into cache.removejob.bytes so tests and the obs
// plane can assert exact per-tenant reclamation. Entries pinned by
// read leases stay registered until released. Adopted runs are released,
// not demoted: the job's outputs are deleted next, and the store's
// reference goes with them.
func (c *PrefetchCache) RemoveJob(jobID string) {
	var reclaimed int64
	for _, s := range c.shards {
		s.mu.Lock()
		for k, e := range s.entries {
			if k.JobID == jobID {
				reclaimed += int64(len(e.body.data))
				s.removeLocked(c, e).Release()
			}
		}
		s.mu.Unlock()
	}
	if reclaimed > 0 {
		c.counters.Add("cache.removejob.bytes", reclaimed)
	}
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

// Len returns the number of cached entries.
func (c *PrefetchCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// jobPrefix reports whether key belongs to the given job (helper for
// tests; matches RemoveJob semantics).
func (k CacheKey) jobPrefix(jobID string) bool { return strings.HasPrefix(k.JobID, jobID) }

// taskHeap is a priority heap of prefetch tasks: higher priority first,
// FIFO within a priority (demand-missed partitions jump the queue).
type taskHeap []*prefetchTask

type prefetchTask struct {
	key      CacheKey
	priority int
	seq      uint64
	// run is the partition a demand miss already read from the store
	// (stored objects are immutable, D16), so caching it reads no more;
	// nil for a background prefetch, which reads it itself.
	run []byte
}

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*prefetchTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

var _ heap.Interface = (*taskHeap)(nil)
