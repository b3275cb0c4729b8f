// Package des is a small deterministic discrete-event simulation kernel
// used by the figure-scale cluster simulator (internal/sim).
//
// The kernel is callback-based: work is scheduled as closures at virtual
// times, and resources (FIFO servers, fair-shared links) call completion
// callbacks when a job finishes. Event ordering is deterministic: events at
// the same virtual time fire in scheduling order.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is a discrete-event simulator with a virtual clock measured in
// seconds. The zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap
	// processed counts executed events so runaway models are detectable.
	processed uint64
	// limit aborts Run after this many events (0 = no limit).
	limit uint64
}

// New returns an empty simulation at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// SetEventLimit makes Run panic after n events, catching accidental
// infinite event loops in models. Zero disables the limit.
func (s *Sim) SetEventLimit(n uint64) { s.limit = n }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: invalid event time %g", t))
	}
	s.seq++
	heap.Push(&s.events, &event{t: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue drains, returning the final time.
func (s *Sim) Run() float64 {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		s.now = ev.t
		s.processed++
		if s.limit > 0 && s.processed > s.limit {
			panic(fmt.Sprintf("des: event limit %d exceeded at t=%g", s.limit, s.now))
		}
		ev.fn()
	}
	return s.now
}

type event struct {
	t   float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
