package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestJobTraceNilIsDisabled(t *testing.T) {
	var tr *JobTrace
	tr.Add(Span{Kind: KindMap, Start: time.Now(), End: time.Now()})
	tr.Add(Span{Kind: KindFetch})
	if spans, dropped := tr.Spans(); tr.JobID() != "" || !tr.Start().IsZero() || spans != nil || dropped != 0 {
		t.Error("nil trace leaked state")
	}
	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatalf("nil ChromeTrace: %v", err)
	}
	stats, err := ValidateChromeTrace(raw)
	if err != nil {
		t.Fatalf("nil trace must still be well-formed: %v", err)
	}
	if stats.Events != 0 {
		t.Errorf("nil trace has %d events", stats.Events)
	}
}

func TestJobTraceSpanCapAndClamp(t *testing.T) {
	tr := NewJobTrace("job_x")
	start := tr.Start()
	// end < start clamps to zero-length rather than going negative.
	tr.Add(Span{Kind: KindMap, Start: start.Add(time.Second), End: start})
	spans, _ := tr.Spans()
	if sp := spans[0]; !sp.End.Equal(sp.Start) {
		t.Errorf("backwards span not clamped: %v → %v", sp.Start, sp.End)
	}
	for range maxTraceSpans {
		tr.Add(Span{Kind: KindFetch, Start: start, End: start})
	}
	if spans, dropped := tr.Spans(); len(spans) != maxTraceSpans || dropped != 1 {
		t.Errorf("cap: count=%d dropped=%d", len(spans), dropped)
	}
}

// TestChromeTraceNestedBalanced exercises the whole job shape the
// telemetry plane produces: two nodes, dispatch wrapping map work on
// one, reduce + overlapping fetches + a merge lane on the other. The
// export must validate (balanced LIFO B/E per lane) even though the
// recorded spans overlap imperfectly.
func TestChromeTraceNestedBalanced(t *testing.T) {
	tr := NewJobTrace("job_0001_sort")
	t0 := tr.Start()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	add := func(k SpanKind, node string, task, slot int32, from, to int) {
		tr.Add(Span{Kind: k, Node: node, Task: task, Slot: slot, Start: at(from), End: at(to)})
	}
	// node1, map slot 0: dispatch encloses map; commit nests inside map.
	add(KindMapDispatch, "node1", 0, 0, 0, 100)
	add(KindMap, "node1", 0, 0, 5, 95)
	add(KindMapCommit, "node1", 0, 0, 80, 95)
	// A child recorded as outliving its parent must be clamped, not break balance.
	add(KindMapDispatch, "node1", 1, 0, 100, 180)
	add(KindMap, "node1", 1, 0, 105, 200)

	// node2, reduce slot 0 + shuffle and merge lanes + overlapping fetch
	// X events on one host's lane.
	add(KindReduceDispatch, "node2", 0, 0, 50, 300)
	add(KindReduce, "node2", 0, 0, 55, 295)
	add(KindApply, "node2", 0, 0, 70, 295)
	add(KindReduceCommit, "node2", 0, 0, 280, 295)
	add(KindShuffle, "node2", 0, 0, 58, 120)
	add(KindMerge, "node2", 0, 0, 90, 270)
	tr.Add(Span{Kind: KindFetch, Node: "node2", Peer: "node1", Map: 0, Bytes: 4096, Start: at(60), End: at(120)})
	tr.Add(Span{Kind: KindFetch, Node: "node2", Peer: "node1", Map: 1, Offset: 0, Start: at(70), End: at(110)}) // overlaps freely

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	stats, err := ValidateChromeTrace(raw)
	if err != nil {
		t.Fatalf("export does not validate: %v\n%s", err, raw)
	}
	if stats.PIDs != 2 {
		t.Errorf("pids = %d, want one per node", stats.PIDs)
	}
	if got := strings.Join(stats.Nodes, ","); got != "node1,node2" {
		t.Errorf("process names = %q", got)
	}
	if stats.Completes != 2 {
		t.Errorf("X events = %d, want 2 fetches", stats.Completes)
	}
	if stats.Durations != 11 {
		t.Errorf("matched B/E pairs = %d, want 11 (one per non-fetch span)", stats.Durations)
	}
	for _, cat := range []string{CatSched, CatMap, CatShuffle, CatFetch, CatMerge, CatReduce} {
		if stats.Cats[cat] == 0 {
			t.Errorf("category %q absent from trace", cat)
		}
	}
	if stats.Names["commit m0@0"] == 0 || stats.Names["commit r0@0"] == 0 || stats.Names["fetch m1"] != 1 {
		t.Errorf("commit or fetch spans missing: %v", stats.Names)
	}
	// Correlation IDs are rendered at export, one format for every view.
	if stats.Corrs["job_0001_sort/r0@0/m0+0"] != 1 || stats.Corrs["job_0001_sort/r0@0/m1+0"] != 1 {
		t.Errorf("fetch corr args = %v", stats.Corrs)
	}

	// otherData carries the job id.
	var file struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.OtherData["job_id"] != "job_0001_sort" {
		t.Errorf("otherData = %v", file.OtherData)
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [}`,
		"no events array": `{"displayTimeUnit":"ms"}`,
		"unbalanced B":    `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}`,
		"stray E":         `{"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}]}`,
		"crossed pairs": `{"traceEvents":[
			{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
			{"name":"b","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":2,"pid":1,"tid":1},
			{"name":"b","ph":"E","ts":3,"pid":1,"tid":1}]}`,
		"unknown phase": `{"traceEvents":[{"name":"a","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
	}
	for label, raw := range cases {
		if _, err := ValidateChromeTrace([]byte(raw)); err == nil {
			t.Errorf("%s: validated but should not", label)
		}
	}
	// Sanity: balance on one lane must not hide imbalance on another.
	ok := `{"traceEvents":[
		{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
		{"name":"a","ph":"E","ts":2,"pid":1,"tid":1},
		{"name":"f","ph":"X","ts":0,"dur":5,"pid":2,"tid":1}]}`
	stats, err := ValidateChromeTrace([]byte(ok))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if stats.Durations != 1 || stats.Completes != 1 || stats.PIDs != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// Start returns the record's clock origin.
func (t *JobTrace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}
