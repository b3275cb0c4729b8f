// Package obs is rdmamr's observability substrate: a metrics registry
// (counters and log-bucketed latency histograms), and a per-job record
// of typed spans whose two views — the shuffle profile and a Chrome
// trace — reconstruct the shuffle/merge/reduce overlap the paper's design
// is about (§III-B.4, Figures 9–11 of the Hadoop-A comparison).
//
// Everything is stdlib-only and safe for concurrent use. Every metric
// handle and recorder in this package is nil-tolerant: a nil *Registry
// hands out nil *Counter/*Histogram, and every method on a nil
// receiver is a no-op that performs zero allocations — the disabled
// fast path the shuffle hot loops rely on (see TestObsDisabledZeroAllocs
// in internal/core).
package obs

import (
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically named int64. The Max method keeps
// high-water marks (shuffle.rdma.outstanding.peak) in the counter
// namespace.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered dotted name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by delta. No-op on a nil receiver.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Max raises the counter to v if v exceeds its current value.
func (c *Counter) Max(v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value (0 on a nil receiver).
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets covers durations from <2ns (bucket 0) up to ~9h by powers
// of two of nanoseconds; observations beyond clamp into the last bucket.
const histBuckets = 45

// Histogram is a log2-bucketed latency histogram with lock-free
// observation. Quantiles are estimated from bucket upper bounds, clamped
// to the observed maximum, so p50/p95/p99 are conservative (never
// under-reported) and accurate to a factor of two.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Name returns the histogram's registered dotted name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

func bucketOf(ns int64) int {
	if ns < 1 {
		return 0
	}
	b := bits.Len64(uint64(ns)) // floor(log2)+1
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one duration. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// HistSnapshot is a consistent-enough view of a histogram: counts are
// read bucket-by-bucket without a global lock, so a snapshot taken while
// observations race may be off by the in-flight handful.
type HistSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Mean returns the average observed duration.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot summarizes the histogram. Zero value on a nil receiver.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap := HistSnapshot{
		Count: total,
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	quantile := func(q float64) time.Duration {
		if total == 0 {
			return 0
		}
		rank := int64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen int64
		for i, n := range counts {
			seen += n
			if seen > rank {
				// Upper bound of bucket i is 2^i ns (bucket 0 holds <2ns).
				ub := int64(1) << uint(i)
				if m := h.max.Load(); ub > m {
					ub = m
				}
				return time.Duration(ub)
			}
		}
		return snap.Max
	}
	snap.P50 = quantile(0.50)
	snap.P95 = quantile(0.95)
	snap.P99 = quantile(0.99)
	return snap
}

// Registry is a concurrency-safe metric registry keyed by dotted names
// (shuffle.rdma.bytes, cache.hits). The zero value is NOT ready —
// use NewRegistry — but a nil *Registry is a valid "observability off"
// registry whose lookups return nil handles. One mutex guards both name
// maps, so handle creation is serialized.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns a nil handle whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// CounterSnapshot copies out the counters only.
func (r *Registry) CounterSnapshot() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	r.mu.Unlock()
	for _, c := range counters {
		out[c.name] = c.Get()
	}
	return out
}

// View reads several registries as one: a cluster's own and each of its
// nodes'. Every reader of its counters — Get, Snapshot, Metrics and a
// ClusterReport's totals — combines them by Combine. Histograms are not
// combined: a name kept in two registries reads the later one's.
type View []*Registry

// Combine folds one registry's value v of counter name into total: a
// high-water mark (a name ending in ".peak") keeps the max, every other
// counter sums.
func Combine(name string, total, v int64) int64 {
	if strings.HasSuffix(name, ".peak") {
		return max(total, v)
	}
	return total + v
}

// Get returns name combined over every registry: 0 where none has it,
// and no counter is created.
func (v View) Get(name string) int64 {
	var total int64
	for _, r := range v {
		if r == nil {
			continue
		}
		r.mu.Lock()
		c := r.counters[name]
		r.mu.Unlock()
		if c != nil {
			total = Combine(name, total, c.Get())
		}
	}
	return total
}

// Snapshot returns every counter, combined over the registries.
func (v View) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range v {
		for name, n := range r.CounterSnapshot() {
			out[name] = Combine(name, out[name], n)
		}
	}
	return out
}

// Metrics returns the combined counters and every registry's
// histograms: what /metrics and /metrics.json serve.
func (v View) Metrics() Snapshot {
	snap := Snapshot{Counters: v.Snapshot(), Histograms: map[string]HistSnapshot{}}
	for _, r := range v {
		if r == nil {
			continue
		}
		r.mu.Lock()
		hists := slices.Collect(maps.Values(r.hists))
		r.mu.Unlock()
		for _, h := range hists {
			snap.Histograms[h.name] = h.Snapshot()
		}
	}
	return snap
}

// WriteText renders the snapshot sorted by name, one metric per line —
// the /metrics format.
func (snap Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(snap.Counters)+len(snap.Histograms))
	for k := range snap.Counters {
		names = append(names, k)
	}
	for k := range snap.Histograms {
		names = append(names, k+" (hist)")
	}
	sort.Strings(names)
	for _, n := range names {
		if k, ok := strings.CutSuffix(n, " (hist)"); ok {
			hs := snap.Histograms[k]
			fmt.Fprintf(w, "%s count=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
				k, hs.Count, hs.Mean(), hs.P50, hs.P95, hs.P99, hs.Max)
		} else {
			fmt.Fprintf(w, "%s=%d\n", n, snap.Counters[n])
		}
	}
}
