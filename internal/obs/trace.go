package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file holds a job's one observability record: a list of typed
// spans covering scheduler dispatch → map run/commit → shuffle fetches →
// merge → reduce run/commit, all under one job. Two views are computed
// from it: the shuffle profile (Report, profile.go) and Chrome
// trace-event JSON (ChromeTrace, loadable in Perfetto or
// chrome://tracing: one pid per node, one tid per lane — task slot,
// shuffle or merge loop, or per-host fetch stream). Names, lanes and
// correlation IDs are rendered only by the views.

// Chrome trace categories. Task-level spans export as balanced B/E
// duration events; fetch spans export as "X" complete events because
// concurrent fetches on one lane overlap freely.
const (
	CatSched   = "sched"
	CatMap     = "map"
	CatShuffle = "shuffle"
	CatFetch   = "fetch"
	CatMerge   = "merge"
	CatReduce  = "reduce"
)

// maxTraceSpans bounds the spans a record retains; beyond it spans are
// counted as dropped. Fetch-heavy jobs hit this first — the cap keeps a
// runaway job from holding the whole shuffle in memory.
const maxTraceSpans = 16384

// SpanKind says what a span timed: its Chrome category, name and lane,
// and the profile phase it feeds.
type SpanKind uint8

const (
	KindMapDispatch    SpanKind = iota // a map attempt held its slot
	KindMap                            // a map attempt ran: the map phase
	KindMapCommit                      // a map attempt wrote its output
	KindReduceDispatch                 // a reduce attempt held its slot
	KindReduce                         // a reduce attempt ran, fetcher setup to exit
	KindApply                          // the reduce function ran: the reduce phase
	KindReduceCommit                   // a reduce attempt renamed its output
	KindShuffle                        // Fetch, zero length: the shuffle window opens
	KindMerge                          // priming to the last record: the merge phase
	KindFetch                          // one chunk, enqueued to delivered: extends the shuffle window
)

// RecoverySlot is the Slot of a map re-executed outside the slot workers:
// it renders on a lane of its own.
const RecoverySlot = -1

// Span is one timed interval of job work. Task is the map or reduce id
// (for a fetch, merge or shuffle span the reduce's), Node the host the
// work ran on, Slot the task slot a dispatch, map or reduce span ran in.
type Span struct {
	Kind    SpanKind
	Task    int32
	Attempt int32
	Slot    int32
	Node    string

	// Start and End bound the span; a fetch's are its enqueue (when the
	// segment asked) and its delivery (when the merge picked it up).
	Start, End time.Time

	// Fetch only: the chunk (map, offset, bytes) and who served it, how
	// often the request was re-issued, when it went on the wire (its
	// ring slot claimed) and when the chunk landed, how long it waited
	// for a free slot, and how long the merge waited for it.
	Peer      string
	Map       int32
	Retries   int32
	Offset    int64
	Bytes     int
	Sent      time.Time
	Received  time.Time
	SlotWait  time.Duration
	MergeWait time.Duration
}

// taskID renders the span's task attempt: m3@0, r2@1.
func (sp *Span) taskID() string {
	letter := "r"
	if sp.Kind <= KindMapCommit {
		letter = "m"
	}
	return letter + strconv.Itoa(int(sp.Task)) + "@" + strconv.Itoa(int(sp.Attempt))
}

// CorrID renders the span's correlation ID, the one format every view
// shares: job/<task>@<attempt> for a task-level span (job/m3@0,
// job/r2@1), and for a fetch the fetching reduce attempt's ID followed by
// the chunk it asked for, map and offset (job/r2@1/m5+131072).
func (sp *Span) CorrID(jobID string) string {
	id := jobID + "/" + sp.taskID()
	if sp.Kind == KindFetch {
		id += "/m" + strconv.Itoa(int(sp.Map)) + "+" + strconv.FormatInt(sp.Offset, 10)
	}
	return id
}

// render returns the span's Chrome category, name and lane.
func (sp *Span) render() (cat, name, lane string) {
	slot := func(noun string) string {
		if sp.Slot == RecoverySlot {
			return noun + " recovery"
		}
		return noun + " slot " + strconv.Itoa(int(sp.Slot))
	}
	reduce := "r" + strconv.Itoa(int(sp.Task))
	switch sp.Kind {
	case KindMapDispatch:
		return CatSched, "dispatch " + sp.taskID(), slot("map")
	case KindMap:
		return CatMap, "map " + sp.taskID(), slot("map")
	case KindMapCommit:
		return CatMap, "commit " + sp.taskID(), slot("map")
	case KindReduceDispatch:
		return CatSched, "dispatch " + sp.taskID(), slot("reduce")
	case KindReduce:
		return CatReduce, "reduce " + sp.taskID(), slot("reduce")
	case KindApply:
		return CatReduce, "apply " + sp.taskID(), slot("reduce")
	case KindReduceCommit:
		return CatReduce, "commit " + sp.taskID(), slot("reduce")
	case KindShuffle:
		return CatShuffle, "shuffle " + sp.taskID(), "shuffle " + reduce
	case KindMerge:
		return CatMerge, "merge " + sp.taskID(), "merge " + reduce
	default: // KindFetch: laned by serving host, so streams render side by side
		return CatFetch, "fetch m" + strconv.Itoa(int(sp.Map)), "fetch " + reduce + "<-" + sp.Peer
	}
}

// JobTrace is one job's record: the spans its tasks, fetchers and
// scheduler add. All methods are safe for concurrent use and no-ops on a
// nil receiver — a nil *JobTrace IS observability off, so every hot-path
// site gates its clock reads on the nil.
type JobTrace struct {
	jobID string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// NewJobTrace starts a record for jobID; every view's timeline origin is
// the call time.
func NewJobTrace(jobID string) *JobTrace {
	return &JobTrace{jobID: jobID, start: time.Now()}
}

// JobID returns the recorded job's ID ("" on a nil receiver).
func (t *JobTrace) JobID() string {
	if t == nil {
		return ""
	}
	return t.jobID
}

// Add records one completed span; an End before its Start is clamped to
// a zero-length span.
func (t *JobTrace) Add(sp Span) {
	if t == nil {
		return
	}
	if sp.End.Before(sp.Start) {
		sp.End = sp.Start
	}
	t.mu.Lock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Spans copies out the retained spans and how many the cap dropped.
func (t *JobTrace) Spans() (spans []Span, dropped int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

// chromeEvent is one Chrome trace-event JSON object.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTraceFile is the JSON Object Format variant of the trace-event
// spec: Perfetto and chrome://tracing both load it.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// laneSpan is a span rendered for its lane.
type laneSpan struct {
	cat, name  string
	start, end time.Time
	args       map[string]string
}

// ChromeTrace exports the record as Chrome trace-event JSON: one pid per
// node (with process_name metadata), one tid per lane (thread_name
// metadata), task-level spans as balanced B/E pairs (nested: a child
// overlapping its parent's end is clamped so the stack discipline the
// format requires always holds), and fetch spans as "X" complete
// events. Every B and X event carries its span's correlation ID as the
// corr arg. Nil receiver → an empty but well-formed trace.
func (t *JobTrace) ChromeTrace() ([]byte, error) {
	file := chromeTraceFile{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
	}
	if t == nil {
		return json.MarshalIndent(file, "", " ")
	}
	spans, dropped := t.Spans()
	file.OtherData = map[string]string{"job_id": t.jobID}
	if dropped > 0 {
		file.OtherData["spans_dropped"] = strconv.FormatInt(dropped, 10)
	}

	us := func(at time.Time) float64 { return float64(at.Sub(t.start)) / float64(time.Microsecond) }

	// Stable pid per node, tid per lane within node.
	byNode := map[string]map[string][]laneSpan{}
	for i := range spans {
		sp := &spans[i]
		cat, name, lane := sp.render()
		args := map[string]string{"corr": sp.CorrID(t.jobID)}
		if sp.Kind == KindFetch {
			args["host"] = sp.Peer
			args["bytes"] = strconv.Itoa(sp.Bytes)
			args["retries"] = strconv.Itoa(int(sp.Retries))
		}
		if byNode[sp.Node] == nil {
			byNode[sp.Node] = map[string][]laneSpan{}
		}
		byNode[sp.Node][lane] = append(byNode[sp.Node][lane],
			laneSpan{cat: cat, name: name, start: sp.Start, end: sp.End, args: args})
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	meta := func(pid, tid int, name, value string) chromeEvent {
		return chromeEvent{Name: name, Ph: "M", PID: pid, TID: tid, Args: map[string]string{"name": value}}
	}
	for pid1, node := range nodes {
		pid := pid1 + 1
		file.TraceEvents = append(file.TraceEvents, meta(pid, 0, "process_name", node))
		lanes := make([]string, 0, len(byNode[node]))
		for l := range byNode[node] {
			lanes = append(lanes, l)
		}
		sort.Strings(lanes)
		for tid1, lane := range lanes {
			tid := tid1 + 1
			file.TraceEvents = append(file.TraceEvents, meta(pid, tid, "thread_name", lane))
			file.TraceEvents = append(file.TraceEvents, emitLane(byNode[node][lane], pid, tid, us)...)
		}
	}
	return json.MarshalIndent(file, "", " ")
}

// emitLane renders one lane's spans: CatFetch as X events, the rest as
// a properly nested, balanced B/E sequence.
func emitLane(spans []laneSpan, pid, tid int, us func(time.Time) float64) []chromeEvent {
	var out []chromeEvent
	var nested []laneSpan
	for _, sp := range spans {
		if sp.cat == CatFetch {
			dur := us(sp.end) - us(sp.start)
			out = append(out, chromeEvent{
				Name: sp.name, Cat: sp.cat, Ph: "X",
				TS: us(sp.start), Dur: &dur, PID: pid, TID: tid, Args: sp.args,
			})
			continue
		}
		nested = append(nested, sp)
	}
	// Sort so an enclosing span precedes the spans it contains, then
	// emit with an explicit stack: before opening the next span, close
	// every open span that ends at or before its start; a child that
	// outlives its parent is clamped to the parent's end so every B has
	// exactly one E and the lane's stack discipline holds.
	sort.Slice(nested, func(i, j int) bool {
		if !nested[i].start.Equal(nested[j].start) {
			return nested[i].start.Before(nested[j].start)
		}
		if !nested[i].end.Equal(nested[j].end) {
			return nested[i].end.After(nested[j].end)
		}
		return nested[i].name < nested[j].name
	})
	type open struct {
		name string
		cat  string
		end  time.Time
	}
	var stack []open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, chromeEvent{Name: top.name, Cat: top.cat, Ph: "E", TS: us(top.end), PID: pid, TID: tid})
	}
	for _, sp := range nested {
		for len(stack) > 0 && !stack[len(stack)-1].end.After(sp.start) {
			closeTop()
		}
		end := sp.end
		if len(stack) > 0 && end.After(stack[len(stack)-1].end) {
			end = stack[len(stack)-1].end
		}
		out = append(out, chromeEvent{
			Name: sp.name, Cat: sp.cat, Ph: "B",
			TS: us(sp.start), PID: pid, TID: tid, Args: sp.args,
		})
		stack = append(stack, open{name: sp.name, cat: sp.cat, end: end})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return out
}

// TraceStats summarizes a validated Chrome trace for smoke gates and
// tests.
type TraceStats struct {
	Events    int            // every event, metadata included
	Durations int            // matched B/E pairs
	Completes int            // X events
	PIDs      int            // distinct processes (nodes) with real events
	Cats      map[string]int // events per category
	Names     map[string]int // events per name (B and X only)
	Nodes     []string       // process_name metadata values, sorted
	// Corrs counts X events per corr arg: a fetch's correlation ID
	// appears once.
	Corrs map[string]int
}

// ValidateChromeTrace parses raw as Chrome trace-event JSON and checks
// it is well formed: it decodes, and on every (pid, tid) lane the B/E
// events balance with LIFO discipline. Returns summary stats for
// further assertions.
func ValidateChromeTrace(raw []byte) (*TraceStats, error) {
	var file chromeTraceFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("obs: trace JSON does not parse: %w", err)
	}
	if file.TraceEvents == nil {
		return nil, fmt.Errorf("obs: trace has no traceEvents array")
	}
	stats := &TraceStats{Cats: map[string]int{}, Names: map[string]int{}, Corrs: map[string]int{}}
	type laneKey struct{ pid, tid int }
	stacks := map[laneKey][]string{}
	pids := map[int]bool{}
	for i, ev := range file.TraceEvents {
		stats.Events++
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				stats.Nodes = append(stats.Nodes, ev.Args["name"])
			}
			continue
		case "X":
			stats.Completes++
			stats.Names[ev.Name]++
			if c, ok := ev.Args["corr"]; ok {
				stats.Corrs[c]++
			}
		case "B":
			k := laneKey{ev.PID, ev.TID}
			stacks[k] = append(stacks[k], ev.Name)
			stats.Names[ev.Name]++
		case "E":
			k := laneKey{ev.PID, ev.TID}
			st := stacks[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("obs: event %d: E %q on pid %d tid %d with no open B", i, ev.Name, ev.PID, ev.TID)
			}
			if top := st[len(st)-1]; ev.Name != "" && ev.Name != top {
				return nil, fmt.Errorf("obs: event %d: E %q does not close open B %q (pid %d tid %d)", i, ev.Name, top, ev.PID, ev.TID)
			}
			stacks[k] = st[:len(st)-1]
			stats.Durations++
		default:
			return nil, fmt.Errorf("obs: event %d: unsupported phase %q", i, ev.Ph)
		}
		if ev.Cat != "" {
			stats.Cats[ev.Cat]++
		}
		pids[ev.PID] = true
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("obs: pid %d tid %d: %d unclosed B events (top %q)", k.pid, k.tid, len(st), st[len(st)-1])
		}
	}
	stats.PIDs = len(pids)
	sort.Strings(stats.Nodes)
	return stats, nil
}
