// Package config provides a Hadoop-style string-keyed configuration with
// typed accessors, defaults, and the tunables the paper exposes
// (§III-C.3): mapred.rdma.enabled, mapred.local.caching.enabled, RDMA
// packet size, key-value pairs per packet, HDFS block size, and slot
// counts.
package config

import (
	"fmt"
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
	KeyMapSlots         = "mapred.tasktracker.map.tasks.maximum"
	KeyReduceSlots      = "mapred.tasktracker.reduce.tasks.maximum"
	KeyIOSortFactor     = "io.sort.factor"
	KeyIOSortMB         = "io.sort.mb"
	KeyShuffleMemLimit  = "mapred.job.shuffle.input.buffer.bytes"
	// KeyParallelCopies is the reducer's fetch parallelism. The HTTP
	// shuffle uses it as its copier-pool size; the RDMA copier uses it as
	// its pipeline depth per host connection: the number of registered
	// bounce-buffer slots, hence the maximum outstanding DataRequests per
	// TaskTracker connection. 1 reproduces the old request→wait→copy
	// lockstep.
	KeyParallelCopies    = "mapred.reduce.parallel.copies"
	KeyHTTPPacketBytes   = "mapred.shuffle.http.packet.size"
	KeyCachePriorityMode = "mapred.rdma.prefetch.cache.policy"
	KeySpeculativeMaps   = "mapred.map.tasks.speculative.execution"
	// KeyRDMAConnectRetries is the copier's transient-failure retry
	// budget per host: how many reconnect attempts (and re-issues of the
	// failed connection's in-flight requests) before the host is declared
	// dead and its segments escalate to map re-execution. 0 restores the
	// legacy behaviour: first transport error → RecoverMap.
	KeyRDMAConnectRetries = "mapred.rdma.connect.retries"
	// KeyRDMARequestTimeout is the per-DataRequest deadline in
	// milliseconds: a response not received within it fails the
	// connection (and re-issues through the retry budget), so a silent
	// peer cannot stall a bounce-buffer slot forever.
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
	// KeySpeculativeReduces enables backup attempts for straggling
	// reduces, mirroring KeySpeculativeMaps. The output-commit protocol
	// (attempt-scoped temp files + atomic rename, first committer wins)
	// makes duplicate reduce attempts safe.
	KeySpeculativeReduces = "mapred.reduce.tasks.speculative.execution"
	// KeyObsProfile keeps each job's record: typed spans of scheduler
	// dispatch, map run/commit, every shuffle fetch, merge and reduce
	// run/commit, viewed as the shuffle profile (JobResult.Profile,
	// /profile) and as Chrome trace-event JSON (JobResult.Trace,
	// /trace.json). Off by default — the hot paths then take one nil
	// check per site and no clock read.
	KeyObsProfile = "mapred.obs.profile.enabled"
	// KeyObsHTTPAddr, when non-empty, serves the debug observability
	// endpoint (/metrics, /profile, /cluster, /events, /trace.json) on
	// the given listen address.
	KeyObsHTTPAddr = "mapred.obs.http.addr"
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
	KeyRDMAEnabled:          "false",
	KeyCachingEnabled:       "true",
	KeyRDMAPacketBytes:      "131072", // 128 KB RDMA packet
	KeyKVPairsPerPacket:     "1024",
	KeyResponderThreads:     "8",
	KeyPrefetchThreads:      "4",
	KeyPrefetchCacheCap:     strconv.Itoa(256 << 20),
	KeyBlockSize:            strconv.Itoa(256 << 20),
	KeyMapSlots:             "4",
	KeyReduceSlots:          "4",
	KeyIOSortFactor:         "10",
	KeyIOSortMB:             strconv.Itoa(100 << 20),
	KeyShuffleMemLimit:      strconv.Itoa(140 << 20),
	KeyParallelCopies:       "5",
	KeyHTTPPacketBytes:      "65536", // 64 KB, the default packet the paper cites
	KeyCachePriorityMode:    "priority",
	KeySpeculativeMaps:      "false",
	KeyRDMAConnectRetries:   "4",
	KeyRDMARequestTimeout:   "30000", // ms
	KeyRDMAReadLeaseTimeout: "30000",
	KeyTrackerExpiry:        "10000", // ms
	KeySpeculativeReduces:   "false",
	KeyObsProfile:           "false",
	KeyObsHTTPAddr:          "",
	KeyJTMaxRunning:         "4",
	KeyJTCacheJobQuota:      "0", // 0 = no per-job cache isolation
	KeyRDMAConnCacheMax:     "16",
	KeyRDMAConnIdleTimeout:  "1000", // ms; 0 = connections never idle out
	KeyRDMAMRBudget:         "0",    // 0 = unlimited pinned slab bytes
	KeyRDMAMRSlabBytes:      strconv.Itoa(8 << 20),
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
		{KeyMapSlots, 1},
		{KeyReduceSlots, 1},
		{KeyIOSortFactor, 2},
		{KeyHTTPPacketBytes, 1024},
	} {
		if v := c.Int(ck.key); v < ck.min {
			return fmt.Errorf("config: %s = %d below minimum %d", ck.key, v, ck.min)
		}
	}
	// The RDMA copier sizes a ring of this many packet-sized slots per
	// host connection, and a slot's tag keeps its low 16 bits.
	if v := c.Int(KeyParallelCopies); v < 1 || v > 4096 {
		return fmt.Errorf("config: %s = %d outside [1, 4096]", KeyParallelCopies, v)
	}
	if v := c.Int(KeyRDMAConnectRetries); v < 0 || v > 1000 {
		return fmt.Errorf("config: %s = %d outside [0, 1000] (0 = no retries, escalate immediately)",
			KeyRDMAConnectRetries, v)
	}
	if v := c.Int(KeyRDMARequestTimeout); v < 1 || v > 600000 {
		return fmt.Errorf("config: %s = %d outside [1, 600000] ms", KeyRDMARequestTimeout, v)
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
