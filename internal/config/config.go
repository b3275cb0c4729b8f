// Package config provides a Hadoop-style string-keyed configuration with
// typed accessors, defaults, and the tunables the paper exposes
// (§III-C.3): mapred.rdma.enabled, mapred.local.caching.enabled, RDMA
// packet size, key-value pairs per packet, HDFS block size, and slot
// counts.
package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Well-known keys. Names follow the paper / Hadoop 0.20 conventions.
const (
	KeyRDMAEnabled      = "mapred.rdma.enabled"
	KeyCachingEnabled   = "mapred.local.caching.enabled"
	KeyRDMAPacketBytes  = "mapred.rdma.packet.size"
	KeyKVPairsPerPacket = "mapred.rdma.kvpairs.per.packet"
	KeyResponderThreads = "mapred.rdma.responder.threads"
	KeyPrefetchThreads  = "mapred.rdma.prefetch.threads"
	KeyPrefetchCacheCap = "mapred.rdma.prefetch.cache.bytes"
	KeyBlockSize        = "dfs.block.size"
	KeyReplication      = "dfs.replication"
	KeyMapSlots         = "mapred.tasktracker.map.tasks.maximum"
	KeyReduceSlots      = "mapred.tasktracker.reduce.tasks.maximum"
	KeyIOSortFactor     = "io.sort.factor"
	KeyIOSortMB         = "io.sort.mb"
	KeyShuffleMemLimit  = "mapred.job.shuffle.input.buffer.bytes"
	// KeyParallelCopies is the reducer's fetch parallelism. The HTTP
	// shuffle uses it as its copier-pool size; the RDMA path uses it as
	// the default bounce-buffer ring depth per host connection when
	// KeyRDMAOutstandingPerConn is left at 0.
	KeyParallelCopies = "mapred.reduce.parallel.copies"
	// KeyRDMAOutstandingPerConn is the RDMA copier's per-host-connection
	// pipeline depth: the number of registered bounce-buffer slots and
	// therefore the maximum outstanding DataRequests per TaskTracker
	// connection. 0 (the default) derives the depth from
	// KeyParallelCopies; 1 reproduces the old request→wait→copy lockstep.
	KeyRDMAOutstandingPerConn = "mapred.rdma.outstanding.per.conn"
	KeyOverlapReduce          = "mapred.rdma.overlap.reduce"
	KeyHTTPPacketBytes        = "mapred.shuffle.http.packet.size"
	KeyCachePriorityMode      = "mapred.rdma.prefetch.cache.policy"
	KeySpeculativeMaps        = "mapred.map.tasks.speculative.execution"
	// KeyRDMAConnectRetries is the copier's transient-failure retry
	// budget per host: how many reconnect attempts (and re-issues of the
	// failed connection's in-flight requests) before the host is declared
	// dead and its segments escalate to map re-execution. 0 restores the
	// legacy behaviour: first transport error → RecoverMap.
	KeyRDMAConnectRetries = "mapred.rdma.connect.retries"
	// KeyRDMABackoffBase/Max bound the exponential reconnect backoff in
	// milliseconds: attempt n sleeps min(base<<n, max) with jitter.
	KeyRDMABackoffBase = "mapred.rdma.backoff.base"
	KeyRDMABackoffMax  = "mapred.rdma.backoff.max"
	// KeyRDMARequestTimeout is the per-DataRequest deadline in
	// milliseconds: a response not received within it fails the
	// connection (and re-issues through the retry budget), so a silent
	// peer cannot stall a bounce-buffer slot forever. 0 disables.
	KeyRDMARequestTimeout = "mapred.rdma.request.timeout"
	// KeyRDMAReadLeaseTimeout bounds, in milliseconds, how long a
	// responder keeps a manifest's cache body pinned waiting for the
	// copier to READ it. Expiry unpins the body; late READs then fail
	// with a clean remote-access error and the copier re-issues the chunk
	// eagerly (staging copy + RDMA write).
	KeyRDMAReadLeaseTimeout = "mapred.rdma.read.lease.timeout"
	// KeyTrackerExpiry is the TaskTracker liveness window in
	// milliseconds: a tracker whose last heartbeat is older than this is
	// declared dead and decommissioned — its running attempts are
	// rescheduled and its completed map outputs proactively re-executed.
	// Mirrors Hadoop's mapred.tasktracker.expiry.interval (default 10 s
	// here; Hadoop ships 600 s).
	KeyTrackerExpiry = "mapred.tasktracker.expiry.interval"
	// KeyMapMaxAttempts / KeyReduceMaxAttempts bound how many times one
	// map / reduce task may be attempted (original + retries, Hadoop
	// semantics) before the job fails.
	KeyMapMaxAttempts    = "mapred.map.max.attempts"
	KeyReduceMaxAttempts = "mapred.reduce.max.attempts"
	// KeySpeculativeReduces enables backup attempts for straggling
	// reduces, mirroring KeySpeculativeMaps. The output-commit protocol
	// (attempt-scoped temp files + atomic rename, first committer wins)
	// makes duplicate reduce attempts safe.
	KeySpeculativeReduces = "mapred.reduce.tasks.speculative.execution"
	// KeyObsProfile enables per-job shuffle profiling: phase-overlap
	// windows, fetch spans, per-host latency histograms, TTFB. Off by
	// default — the copier hot path then takes zero observability cost.
	KeyObsProfile = "mapred.obs.profile.enabled"
	// KeyObsHTTPAddr, when non-empty, serves the debug observability
	// endpoint (/metrics, /profile, /cluster, /events, /trace.json) on
	// the given listen address.
	KeyObsHTTPAddr = "mapred.obs.http.addr"
	// KeyObsTrace enables job-lifecycle tracing: scheduler dispatch, map
	// run/commit, shuffle fetches, merge, and reduce run/commit recorded
	// as spans and exported as Chrome trace-event JSON (/trace.json,
	// JobResult.Trace). Off by default — a nil trace costs the hot paths
	// one pointer check.
	KeyObsTrace = "mapred.obs.trace.enabled"
	// KeyJTMaxRunning bounds how many jobs the JobTracker runs
	// concurrently; later submissions queue FIFO for admission.
	KeyJTMaxRunning = "mapred.jobtracker.max.running"
	// KeyJTCacheJobQuota is the per-job PrefetchCache budget in bytes:
	// one tenant's pinned registered memory may not exceed it (its own
	// least valuable entries are evicted first, and capacity eviction
	// prefers over-quota tenants). 0 disables per-job isolation and
	// leaves only the global capacity bound.
	KeyJTCacheJobQuota = "mapred.jobtracker.cache.job.quota.bytes"
	// KeyRDMAConnCacheMax caps the per-device shared-endpoint cache (D13):
	// at most this many remote hosts stay dialed at once; idle entries
	// beyond the cap are evicted LRU (entries with leases in flight are
	// never evicted, so the cache may transiently exceed the cap).
	KeyRDMAConnCacheMax = "mapred.rdma.conn.cache.max"
	// KeyRDMAConnIdleTimeout retires a fetcher's connection lease after
	// this many milliseconds without traffic, unpinning its bounce ring
	// and letting the endpoint cache evict the idle host. 0 disables idle
	// retirement (connections live for the fetch).
	KeyRDMAConnIdleTimeout = "mapred.rdma.conn.idle.timeout"
	// KeyRDMAMRBudget is the per-device hard budget in bytes for slab-
	// registered memory (rings, staging, headers, cache bodies): the slab
	// allocator fails allocations rather than pin past it. 0 = unlimited.
	KeyRDMAMRBudget = "mapred.rdma.mr.budget.bytes"
	// KeyRDMAMRSlabBytes is the size of one registered slab in the
	// per-device MR pool; registration cost amortizes across every carve.
	KeyRDMAMRSlabBytes = "mapred.rdma.mr.slab.bytes"
)

// Defaults mirror the paper's tuned values: 4 map + 4 reduce slots per
// TaskTracker (§IV), 64 KB default HTTP packet (§III-B.2), 256 MB blocks
// for TeraSort on OSU-IB (§IV-B), io.sort.factor 10 (Hadoop 0.20 default).
var defaults = map[string]string{
	KeyRDMAEnabled:            "false",
	KeyCachingEnabled:         "true",
	KeyRDMAPacketBytes:        "131072", // 128 KB RDMA packet
	KeyKVPairsPerPacket:       "1024",
	KeyResponderThreads:       "8",
	KeyPrefetchThreads:        "4",
	KeyPrefetchCacheCap:       strconv.Itoa(256 << 20),
	KeyBlockSize:              strconv.Itoa(256 << 20),
	KeyReplication:            "1",
	KeyMapSlots:               "4",
	KeyReduceSlots:            "4",
	KeyIOSortFactor:           "10",
	KeyIOSortMB:               strconv.Itoa(100 << 20),
	KeyShuffleMemLimit:        strconv.Itoa(140 << 20),
	KeyParallelCopies:         "5",
	KeyRDMAOutstandingPerConn: "0", // 0 = follow KeyParallelCopies
	KeyOverlapReduce:          "true",
	KeyHTTPPacketBytes:        "65536", // 64 KB, the default packet the paper cites
	KeyCachePriorityMode:      "priority",
	KeySpeculativeMaps:        "false",
	KeyRDMAConnectRetries:     "4",
	KeyRDMABackoffBase:        "2",     // ms
	KeyRDMABackoffMax:         "200",   // ms
	KeyRDMARequestTimeout:     "30000", // ms; 0 disables the deadline
	KeyRDMAReadLeaseTimeout:   "30000",
	KeyTrackerExpiry:          "10000", // ms
	KeyMapMaxAttempts:         "4",
	KeyReduceMaxAttempts:      "4",
	KeySpeculativeReduces:     "false",
	KeyObsProfile:             "false",
	KeyObsHTTPAddr:            "",
	KeyObsTrace:               "false",
	KeyJTMaxRunning:           "4",
	KeyJTCacheJobQuota:        "0", // 0 = no per-job cache isolation
	KeyRDMAConnCacheMax:       "16",
	KeyRDMAConnIdleTimeout:    "1000", // ms; 0 = connections never idle out
	KeyRDMAMRBudget:           "0",    // 0 = unlimited pinned slab bytes
	KeyRDMAMRSlabBytes:        strconv.Itoa(8 << 20),
}

// Config is a concurrency-safe key/value configuration. The zero value is
// valid and serves defaults only.
type Config struct {
	mu   sync.RWMutex
	vals map[string]string
}

// New returns an empty Config (all keys at defaults).
func New() *Config { return &Config{vals: make(map[string]string)} }

// Clone returns an independent copy of c.
func (c *Config) Clone() *Config {
	out := New()
	if c == nil {
		return out
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, v := range c.vals {
		out.vals[k] = v
	}
	return out
}

// Set assigns key = value.
func (c *Config) Set(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vals == nil {
		c.vals = make(map[string]string)
	}
	c.vals[key] = value
}

// SetInt assigns an integer value.
func (c *Config) SetInt(key string, v int64) { c.Set(key, strconv.FormatInt(v, 10)) }

// SetBool assigns a boolean value.
func (c *Config) SetBool(key string, v bool) { c.Set(key, strconv.FormatBool(v)) }

// Get returns the raw value for key, falling back to the registered
// default, then to "".
func (c *Config) Get(key string) string {
	if c != nil {
		c.mu.RLock()
		v, ok := c.vals[key]
		c.mu.RUnlock()
		if ok {
			return v
		}
	}
	return defaults[key]
}

// Int returns the integer value of key. Malformed values fall back to the
// default; a malformed default panics (it is a programming error in this
// package).
func (c *Config) Int(key string) int64 {
	raw := c.Get(key)
	v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
	if err == nil {
		return v
	}
	d, ok := defaults[key]
	if !ok {
		return 0
	}
	v, err = strconv.ParseInt(d, 10, 64)
	if err != nil {
		panic(fmt.Sprintf("config: malformed default for %s: %q", key, d))
	}
	return v
}

// Bool returns the boolean value of key with the same fallback rules as Int.
func (c *Config) Bool(key string) bool {
	raw := strings.TrimSpace(c.Get(key))
	v, err := strconv.ParseBool(raw)
	if err == nil {
		return v
	}
	d, ok := defaults[key]
	if !ok {
		return false
	}
	v, err = strconv.ParseBool(d)
	if err != nil {
		panic(fmt.Sprintf("config: malformed default for %s: %q", key, d))
	}
	return v
}

// Keys returns every explicitly-set key, sorted.
func (c *Config) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DefaultFor exposes a registered default (used by docs and validation).
func DefaultFor(key string) (string, bool) {
	v, ok := defaults[key]
	return v, ok
}

// Snapshot returns the effective value of every known key — registered
// defaults overlaid with explicit sets, plus any explicitly-set keys this
// package does not know. Bench tooling stamps result files with it so a
// recorded number is attributable to the exact configuration that
// produced it. Works on a nil receiver (pure defaults).
func (c *Config) Snapshot() map[string]string {
	out := make(map[string]string, len(defaults))
	for k, v := range defaults {
		out[k] = v
	}
	if c != nil {
		c.mu.RLock()
		for k, v := range c.vals {
			out[k] = v
		}
		c.mu.RUnlock()
	}
	return out
}

// Validate checks cross-key consistency and value sanity for the keys this
// package knows about, returning a descriptive error for the first
// violation found.
func (c *Config) Validate() error {
	type check struct {
		key string
		min int64
	}
	for _, ck := range []check{
		{KeyRDMAPacketBytes, 1024},
		{KeyKVPairsPerPacket, 1},
		{KeyResponderThreads, 1},
		{KeyPrefetchThreads, 1},
		{KeyBlockSize, 4096},
		{KeyReplication, 1},
		{KeyMapSlots, 1},
		{KeyReduceSlots, 1},
		{KeyIOSortFactor, 2},
		{KeyParallelCopies, 1},
		{KeyHTTPPacketBytes, 1024},
	} {
		if v := c.Int(ck.key); v < ck.min {
			return fmt.Errorf("config: %s = %d below minimum %d", ck.key, v, ck.min)
		}
	}
	if v := c.Int(KeyRDMAOutstandingPerConn); v < 0 || v > 4096 {
		return fmt.Errorf("config: %s = %d outside [0, 4096] (0 follows %s)",
			KeyRDMAOutstandingPerConn, v, KeyParallelCopies)
	}
	if v := c.Int(KeyRDMAConnectRetries); v < 0 || v > 1000 {
		return fmt.Errorf("config: %s = %d outside [0, 1000] (0 = no retries, escalate immediately)",
			KeyRDMAConnectRetries, v)
	}
	base, max := c.Int(KeyRDMABackoffBase), c.Int(KeyRDMABackoffMax)
	if base < 0 {
		return fmt.Errorf("config: %s = %d must be >= 0", KeyRDMABackoffBase, base)
	}
	if max < base {
		return fmt.Errorf("config: %s = %d below %s = %d", KeyRDMABackoffMax, max, KeyRDMABackoffBase, base)
	}
	if v := c.Int(KeyRDMARequestTimeout); v < 0 || v > 600000 {
		return fmt.Errorf("config: %s = %d outside [0, 600000] ms (0 disables the deadline)",
			KeyRDMARequestTimeout, v)
	}
	if mode := c.Get(KeyCachePriorityMode); mode != "priority" && mode != "fifo" {
		return fmt.Errorf("config: %s must be priority or fifo, got %q", KeyCachePriorityMode, mode)
	}
	if v := c.Int(KeyRDMAReadLeaseTimeout); v < 1 || v > 600000 {
		return fmt.Errorf("config: %s = %d outside [1, 600000] ms", KeyRDMAReadLeaseTimeout, v)
	}
	if v := c.Int(KeyTrackerExpiry); v < 1 || v > 3600000 {
		return fmt.Errorf("config: %s = %d outside [1, 3600000] ms", KeyTrackerExpiry, v)
	}
	for _, key := range []string{KeyMapMaxAttempts, KeyReduceMaxAttempts} {
		if v := c.Int(key); v < 1 || v > 100 {
			return fmt.Errorf("config: %s = %d outside [1, 100]", key, v)
		}
	}
	if v := c.Int(KeyJTMaxRunning); v < 1 || v > 256 {
		return fmt.Errorf("config: %s = %d outside [1, 256]", KeyJTMaxRunning, v)
	}
	if v := c.Int(KeyJTCacheJobQuota); v < 0 {
		return fmt.Errorf("config: %s = %d must be >= 0 (0 disables per-job isolation)",
			KeyJTCacheJobQuota, v)
	}
	if v := c.Int(KeyRDMAConnCacheMax); v < 1 || v > 65536 {
		return fmt.Errorf("config: %s = %d outside [1, 65536]", KeyRDMAConnCacheMax, v)
	}
	if v := c.Int(KeyRDMAConnIdleTimeout); v < 0 || v > 600000 {
		return fmt.Errorf("config: %s = %d outside [0, 600000] ms (0 disables idle retirement)",
			KeyRDMAConnIdleTimeout, v)
	}
	if v := c.Int(KeyRDMAMRBudget); v < 0 {
		return fmt.Errorf("config: %s = %d must be >= 0 (0 = unlimited)", KeyRDMAMRBudget, v)
	}
	if v := c.Int(KeyRDMAMRSlabBytes); v < 65536 || v > 1<<30 {
		return fmt.Errorf("config: %s = %d outside [65536, %d]", KeyRDMAMRSlabBytes, v, 1<<30)
	}
	if c.Bool(KeyCachingEnabled) && !c.Bool(KeyRDMAEnabled) {
		// Caching is part of the RDMA design; allowed but meaningless
		// without it. Not an error (paper's hybrid keeps both paths), but
		// cache capacity must still be sane when caching is on.
		if c.Int(KeyPrefetchCacheCap) < 1<<20 {
			return fmt.Errorf("config: %s too small", KeyPrefetchCacheCap)
		}
	}
	return nil
}
