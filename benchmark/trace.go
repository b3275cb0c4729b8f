package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans are
// recorded from outside the program, around calls into its public
// functions; the program itself gains no instrumentation. Spans of one
// operation (one set-up, one job, one round, one reducer fetch) share
// OpID; Parent is the span that caused this one, 0 for a span nothing
// caused.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Counters holds the change in the cluster's counters across the
	// span. It is recorded on the spans that bound an operation's timed
	// work (RunJob, round), so ratios are measured at the same boundaries
	// as the times.
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op returning 0, so call
// sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Layer: layer, Name: name, StartNs: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// setCounters attaches a counter delta to span id.
func (t *tracer) setCounters(id int, delta map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Counters = delta
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration in ns of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelfTimes sums self time per layer, and returns the worst
// relative gap, over operations, between an operation's root span and
// the sum of the self times of its spans. Spans of one operation run one
// after another inside its root, so the gap is 0 unless a span was left
// open or given the wrong parent. A round of a shuffle workload is an
// operation of one span whose children are the reducer fetches, each an
// operation of its own; single-span operations have nothing to check.
func layerSelfTimes(spans []span) (perLayer map[string]int64, worstGap float64) {
	self := selfTimes(spans)
	opOf := make(map[int]int, len(spans))
	for _, s := range spans {
		opOf[s.ID] = s.OpID
	}
	type opSum struct {
		root, self int64
		spans      int
	}
	ops := make(map[int]*opSum)
	perLayer = make(map[string]int64)
	for _, s := range spans {
		perLayer[s.Layer] += self[s.ID]
		o := ops[s.OpID]
		if o == nil {
			o = &opSum{}
			ops[s.OpID] = o
		}
		o.self += self[s.ID]
		o.spans++
		if s.Parent == 0 || opOf[s.Parent] != s.OpID {
			o.root += s.dur()
		}
	}
	for _, o := range ops {
		if o.spans < 2 || o.root == 0 {
			continue
		}
		worstGap = max(worstGap, math.Abs(float64(o.self-o.root))/float64(o.root))
	}
	return perLayer, worstGap
}
