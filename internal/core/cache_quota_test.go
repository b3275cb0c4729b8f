package core

import (
	"testing"

	"rdmamr/internal/obs"
)

func jkey(job string, m, p int) CacheKey { return CacheKey{JobID: job, MapID: m, Partition: p} }

func TestCacheQuotaCapsTenantBytes(t *testing.T) {
	c := obs.NewRegistry()
	cache := NewPrefetchCache(1000, "priority", c)
	cache.SetJobQuota(100)
	for m := 0; m < 10; m++ {
		cache.Put(jkey("jobA", m, 0), make([]byte, 40), PriorityPrefetch)
	}
	if got := cache.JobBytes("jobA"); got > 100 {
		t.Fatalf("tenant holds %d bytes, quota 100", got)
	}
	// The over-quota inserts must have pre-evicted jobA's own entries,
	// not been dropped: the last Put always lands.
	if !cache.Contains(jkey("jobA", 9, 0)) {
		t.Fatal("latest insert missing after quota eviction")
	}
	if c.Counter("cache.quota.evictions").Get() == 0 {
		t.Fatalf("no quota evictions recorded: %v", c.CounterSnapshot())
	}
}

func TestCacheQuotaRejectsOversizedEntry(t *testing.T) {
	c := obs.NewRegistry()
	cache := NewPrefetchCache(1000, "priority", c)
	cache.SetJobQuota(50)
	if cache.Put(jkey("jobA", 0, 0), make([]byte, 51), PriorityDemand) {
		t.Fatal("entry larger than the job quota admitted")
	}
	if c.Counter("cache.rejected").Get() != 1 {
		t.Fatalf("rejection not counted: %v", c.CounterSnapshot())
	}
}

func TestCacheQuotaEvictsOwnTenantNotNeighbors(t *testing.T) {
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.SetJobQuota(100)
	cache.Put(jkey("jobB", 0, 0), make([]byte, 90), PriorityPrefetch) // low value neighbor
	cache.Put(jkey("jobA", 0, 0), make([]byte, 60), PriorityDemand)
	// jobA is at 60/100; this 60-byte insert busts its quota and must
	// evict jobA's own demand entry rather than jobB's cheaper one.
	if !cache.Put(jkey("jobA", 1, 0), make([]byte, 60), PriorityPrefetch) {
		t.Fatal("within-capacity insert rejected")
	}
	if !cache.Contains(jkey("jobB", 0, 0)) {
		t.Fatal("neighbor's entry evicted to satisfy another job's quota")
	}
	if cache.Contains(jkey("jobA", 0, 0)) {
		t.Fatal("tenant's own entry survived quota eviction")
	}
}

func TestCacheCapacityEvictionPrefersOverQuotaTenant(t *testing.T) {
	c := obs.NewRegistry()
	cache := NewPrefetchCache(200, "priority", c)
	cache.Put(jkey("jobA", 0, 0), make([]byte, 120), PriorityDemand)
	cache.Put(jkey("jobB", 0, 0), make([]byte, 40), PriorityPrefetch)
	// Shrink the quota below jobA's resident 120 bytes: jobA is now over
	// quota, so a low-priority insert from jobB may displace jobA's
	// higher-priority entry — surplus trumps entry value.
	cache.SetJobQuota(100)
	if !cache.Put(jkey("jobB", 1, 0), make([]byte, 50), PriorityPrefetch) {
		t.Fatal("insert against over-quota tenant rejected")
	}
	if cache.Contains(jkey("jobA", 0, 0)) {
		t.Fatal("over-quota tenant's entry survived capacity pressure")
	}
	if !cache.Contains(jkey("jobB", 0, 0)) {
		t.Fatal("compliant tenant's entry evicted instead")
	}
}

func TestCacheRemoveJobReclaimsExactTenantBytes(t *testing.T) {
	c := obs.NewRegistry()
	cache := NewPrefetchCache(1000, "priority", c)
	cache.Put(jkey("jobA", 0, 0), make([]byte, 30), PriorityPrefetch)
	cache.Put(jkey("jobA", 1, 0), make([]byte, 45), PriorityDemand)
	cache.Put(jkey("jobB", 0, 0), make([]byte, 25), PriorityDemand)
	cache.RemoveJob("jobA")
	if got := c.Counter("cache.removejob.bytes").Get(); got != 75 {
		t.Fatalf("reclaimed %d bytes, want 75", got)
	}
	if got := cache.JobBytes("jobA"); got != 0 {
		t.Fatalf("tenant still charged %d bytes after RemoveJob", got)
	}
	if got := cache.JobBytes("jobB"); got != 25 {
		t.Fatalf("neighbor charge disturbed: %d", got)
	}
	if got := cache.Used(); got != 25 {
		t.Fatalf("cache used %d, want 25", got)
	}
}

func TestCacheTenantAccountingTracksRefresh(t *testing.T) {
	cache := NewPrefetchCache(1000, "priority", nil)
	cache.Put(jkey("jobA", 0, 0), make([]byte, 40), PriorityPrefetch)
	cache.Put(jkey("jobA", 0, 0), make([]byte, 70), PriorityDemand) // body swap, +30
	if got := cache.JobBytes("jobA"); got != 70 {
		t.Fatalf("tenant charged %d bytes after refresh, want 70", got)
	}
	cache.RemoveJob("jobA")
	if got := cache.JobBytes("jobA"); got != 0 {
		t.Fatalf("tenant charged %d bytes after RemoveJob", got)
	}
}
