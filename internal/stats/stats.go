// Package stats provides the lightweight counters and phase timers used
// across rdmamr: shuffle byte counts, cache hit/miss ratios, disk traffic,
// and per-phase wall times that EXPERIMENTS.md reports.
//
// Counters is now a facade over internal/obs: every named counter lives
// in an obs.Registry, so the same values surface through the debug HTTP
// endpoint and profile reports without any call site changing. All
// historical counter names (shuffle.rdma.*, cache.*, ...) are preserved.
package stats

import (
	"sync"
	"time"

	"rdmamr/internal/obs"
)

// Counters is a concurrency-safe named-counter set backed by an
// obs.Registry. The zero value is ready to use (it lazily creates a
// private registry).
type Counters struct {
	once sync.Once
	reg  *obs.Registry
}

// Registry exposes the backing obs.Registry for components that want
// histograms alongside the counters.
func (c *Counters) Registry() *obs.Registry {
	c.once.Do(func() { c.reg = obs.NewRegistry() })
	return c.reg
}

// Handle pre-resolves the named counter so hot paths can skip the
// registry's name lookup on every increment.
func (c *Counters) Handle(name string) *obs.Counter {
	return c.Registry().Counter(name)
}

// Add increments name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.Registry().Counter(name).Add(delta)
}

// Get returns the current value of name (0 if never touched).
func (c *Counters) Get(name string) int64 {
	return c.Registry().Counter(name).Get()
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	return c.Registry().CounterSnapshot()
}

// Phases records named wall-clock intervals (map, shuffle, merge, reduce).
// The zero value is ready to use.
type Phases struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

// Observe adds d to the named phase's accumulated duration.
func (p *Phases) Observe(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spans == nil {
		p.spans = make(map[string]time.Duration)
	}
	p.spans[name] += d
}

// Snapshot returns a copy of all phases.
func (p *Phases) Snapshot() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.spans))
	for k, v := range p.spans {
		out[k] = v
	}
	return out
}
