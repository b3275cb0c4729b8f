package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilJobProfileIsDisabled(t *testing.T) {
	var tr *JobTrace
	// Every span kind the report reads must be a safe no-op on the nil record.
	for _, k := range []SpanKind{KindMap, KindShuffle, KindMerge, KindApply, KindFetch} {
		tr.Add(Span{Kind: k, Peer: "node0", Bytes: 100, Start: time.Now(), End: time.Now(), MergeWait: time.Millisecond})
	}
	if tr.Report() != nil {
		t.Fatal("nil record must report nil")
	}
	if tr.JobID() != "" {
		t.Fatal("nil record JobID")
	}
}

// handSetTrace builds a record from hand-set timestamps — no clock, no
// sleep — so every Report field can be checked against arithmetic done by
// hand on its spans. fetch adds one more fetch span to it.
func handSetTrace() (tr *JobTrace, at func(ms float64) time.Time,
	fetch func(reduce, attempt int32, peer string, mapID int32, off int64, bytes int, enq, sent, recv, deliv, slotWait, mergeWait float64)) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at = func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	tr = &JobTrace{jobID: "job_t", start: t0}
	task := func(k SpanKind, id, attempt int32, from, to float64) {
		tr.Add(Span{Kind: k, Task: id, Attempt: attempt, Node: "node0", Start: at(from), End: at(to)})
	}
	// Map 1's two attempts merge into one window [50,150]; map union [0,150].
	task(KindMap, 0, 0, 0, 100)
	task(KindMap, 1, 0, 50, 120)
	task(KindMap, 1, 1, 60, 150)
	task(KindMapCommit, 0, 0, 90, 100) // opens no window
	// Shuffle windows open at the fetcher's marker; deliveries extend
	// them: r0 [80,220], r1 [90,105].
	task(KindShuffle, 0, 0, 80, 80)
	task(KindShuffle, 0, 1, 81, 81)
	task(KindShuffle, 1, 0, 90, 90)
	task(KindMerge, 0, 0, 120, 240)
	task(KindReduce, 0, 0, 70, 265) // the reduce window is the apply span's
	task(KindApply, 0, 0, 130, 260)
	fetch = func(reduce, attempt int32, peer string, mapID int32, off int64, bytes int, enq, sent, recv, deliv, slotWait, mergeWait float64) {
		tr.Add(Span{Kind: KindFetch, Task: reduce, Attempt: attempt, Node: "node0",
			Peer: peer, Map: mapID, Offset: off, Bytes: bytes,
			Start: at(enq), Sent: at(sent), Received: at(recv), End: at(deliv),
			SlotWait:  time.Duration(slotWait * float64(time.Millisecond)),
			MergeWait: time.Duration(mergeWait * float64(time.Millisecond))})
	}
	fetch(0, 0, "node1", 0, 0, 4096, 82, 83, 93, 95, 0, 2)       // 13 ms
	fetch(0, 0, "node1", 1, 0, 4096, 84, 85, 100, 140, 1, 3)     // 56 ms
	fetch(0, 1, "node1", 0, 0, 4096, 84, 84, 99, 130, 0, 0)      // 46 ms, the other attempt's connection
	fetch(0, 0, "node2", 2, 0, 1024, 85, 86, 88, 90, 0, 0)       // 5 ms, r0's first byte
	fetch(0, 0, "node1", 0, 4096, 4096, 92, 93, 97, 132, 0, 0.5) // 40 ms, claims f1's slot as it frees
	fetch(1, 0, "node2", 0, 0, 2048, 95, 96, 100, 105, 0, 0)     // 10 ms, r1's first byte
	fetch(0, 0, "node3", 3, 0, 1024, 150, 151, 200, 220, 0, 0)   // 70 ms, r0's last delivery
	return tr, at, fetch
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-6 }

// TestProfileWindowsAndOverlap checks the report's aggregates — phase
// windows, overlaps, TTFB, per-host latency, slot peak and merge stall —
// against the hand-set spans.
func TestProfileWindowsAndOverlap(t *testing.T) {
	tr, at, _ := handSetTrace()
	rep := tr.reportAt(at(300))
	if rep.JobID != "job_t" || !approx(rep.DurationMs, 300) {
		t.Fatalf("job %q duration %.3f, want job_t 300", rep.JobID, rep.DurationMs)
	}
	if rep.Fetches != 7 || rep.SpansDropped != 0 {
		t.Fatalf("fetches %d dropped %d, want 7 and 0", rep.Fetches, rep.SpansDropped)
	}
	// TTFB: r0 opened at 80, first delivery at 90; r1 opened at 90, first at 105.
	if len(rep.ReduceTTFB) != 2 || rep.ReduceTTFB[0].Reduce != 0 || !approx(rep.ReduceTTFB[0].Ms, 10) ||
		rep.ReduceTTFB[1].Reduce != 1 || !approx(rep.ReduceTTFB[1].Ms, 15) || !approx(rep.TTFBMs, 10) {
		t.Fatalf("TTFB %.3f per reduce %+v, want 10 (r0 10, r1 15)", rep.TTFBMs, rep.ReduceTTFB)
	}
	// Hosts: p50 is the exact duration at rank ⌊n/2⌋ of the sorted
	// totals: node1's 13, 40, 46, 56 ms give 46; node2's 5 and 10 ms give
	// 10; node3's one 70 ms gives 70.
	if len(rep.Hosts) != 3 {
		t.Fatalf("hosts %+v", rep.Hosts)
	}
	for i, w := range []HostStats{
		{Host: "node1", Fetches: 4, Bytes: 16384, P50Us: 46000, MaxUs: 56000},
		{Host: "node2", Fetches: 2, Bytes: 3072, P50Us: 10000, MaxUs: 10000},
		{Host: "node3", Fetches: 1, Bytes: 1024, P50Us: 70000, MaxUs: 70000},
	} {
		h := rep.Hosts[i]
		if h.Host != w.Host || h.Fetches != w.Fetches || h.Bytes != w.Bytes || !approx(h.P50Us, w.P50Us) || !approx(h.MaxUs, w.MaxUs) {
			t.Errorf("host %d = %+v, want %+v", i, h, w)
		}
	}
	// Slot peak: on (r0@0, node1) [83,93) [85,100) [93,97) never hold
	// more than two at once; r0@1's [84,99) is another connection.
	if rep.SlotPeak != 2 {
		t.Errorf("slot peak = %d, want 2", rep.SlotPeak)
	}
	if !approx(rep.MergeStallMs, 5.5) {
		t.Errorf("merge stall = %.3f ms, want 5.5", rep.MergeStallMs)
	}
	for _, o := range []Overlap{
		{A: PhaseMap, B: PhaseShuffle, Ms: 70},    // [80,150]
		{A: PhaseShuffle, B: PhaseMerge, Ms: 100}, // [120,220]
		{A: PhaseShuffle, B: PhaseReduce, Ms: 90}, // [130,220]
		{A: PhaseMerge, B: PhaseReduce, Ms: 110},  // [130,240]
	} {
		if got := rep.OverlapMs(o.A, o.B); !approx(got, o.Ms) {
			t.Errorf("%s∩%s = %.3f, want %.0f", o.A, o.B, got, o.Ms)
		}
	}
	if len(rep.Overlaps) != 4 || rep.OverlapMs(PhaseMap, "nope") != 0 {
		t.Errorf("overlaps %+v", rep.Overlaps)
	}
	for _, ph := range rep.Phases {
		switch ph.Phase {
		case PhaseMap:
			if len(ph.Windows) != 2 || ph.Windows[1] != (Interval{Key: 1, StartMs: 50, EndMs: 150}) || !approx(ph.UnionMs, 150) {
				t.Errorf("map timeline %+v, want map 1 at [50,150] and a 150 ms union", ph)
			}
		case PhaseShuffle:
			if len(ph.Windows) != 2 || ph.Windows[0] != (Interval{Key: 0, StartMs: 80, EndMs: 220}) ||
				ph.Windows[1] != (Interval{Key: 1, StartMs: 90, EndMs: 105}) {
				t.Errorf("shuffle timeline %+v, want r0 [80,220] and r1 [90,105]", ph)
			}
		case PhaseReduce:
			if len(ph.Windows) != 1 || ph.Windows[0] != (Interval{Key: 0, StartMs: 130, EndMs: 260}) {
				t.Errorf("reduce timeline %+v, want the apply span [130,260]", ph)
			}
		}
	}
}

// TestProfileSpansCapAndOrder checks the report's span sample — every
// fetch, oldest first, its life split in four — and spans_dropped once
// the record is at its cap.
func TestProfileSpansCapAndOrder(t *testing.T) {
	tr, at, fetch := handSetTrace()
	rep := tr.reportAt(at(300))
	if len(rep.Spans) != 7 {
		t.Fatalf("spans = %d, want 7", len(rep.Spans))
	}
	if sp := rep.Spans[0]; sp.CorrID != "job_t/r0@0/m0+0" || sp.Host != "node1" || sp.Bytes != 4096 || !approx(sp.StartMs, 82) ||
		!approx(sp.QueueUs, 1000) || !approx(sp.RDMAUs, 10000) || !approx(sp.DeliverUs, 2000) || !approx(sp.TotalUs, 13000) {
		t.Errorf("span 0 = %+v", sp)
	}
	if sp := rep.Spans[1]; sp.CorrID != "job_t/r0@0/m1+0" || !approx(sp.SlotUs, 1000) {
		t.Errorf("span 1 = %+v", sp)
	}
	if got := rep.Spans[4].CorrID; got != "job_t/r0@0/m0+4096" {
		t.Errorf("span 4 corr = %q", got)
	}

	// At the cap the record drops spans and the report says how many.
	for range maxTraceSpans {
		fetch(0, 0, "node1", 0, 0, 1, 100, 100, 100, 100, 0, 0)
	}
	rep = tr.reportAt(at(300))
	if len(tr.spans) != maxTraceSpans {
		t.Fatalf("record holds %d spans, cap %d", len(tr.spans), maxTraceSpans)
	}
	if rep.SpansDropped != 17 || rep.Fetches != maxTraceSpans-10 {
		t.Errorf("at the cap: dropped %d fetches %d, want 17 and %d", rep.SpansDropped, rep.Fetches, maxTraceSpans-10)
	}
}

func TestReportJSONRoundTripAndText(t *testing.T) {
	tr := NewJobTrace("job_rt")
	t0 := tr.Start()
	tr.Add(Span{Kind: KindShuffle, Start: t0, End: t0.Add(100 * time.Millisecond)})
	tr.Add(Span{Kind: KindMerge, Start: t0.Add(20 * time.Millisecond), End: t0.Add(120 * time.Millisecond)})
	tr.Add(Span{Kind: KindFetch, Peer: "node1", Bytes: 64, Start: t0.Add(9 * time.Millisecond), End: t0.Add(10 * time.Millisecond)})
	rep := tr.Report()

	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.JobID != "job_rt" || back.OverlapMs(PhaseShuffle, PhaseMerge) <= 0 {
		t.Fatalf("round-tripped report lost data: %+v", back)
	}

	text := rep.Text()
	for _, want := range []string{"shuffle profile", "time-to-first-byte", "per-host fetch latency", "node1", "measured overlap", "shuffle"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
	if (&Report{}).Text() == "" || (*Report)(nil).Text() == "" {
		t.Fatal("empty/nil report text must not be empty")
	}
}

func TestRenderers(t *testing.T) {
	bars := RenderBars(100, []Bar{{Label: "map", From: 0, To: 50}, {Label: "reduce", From: 40, To: 100}}, "s")
	if !strings.Contains(bars, "map") || !strings.Contains(bars, "█") {
		t.Fatalf("RenderBars output:\n%s", bars)
	}
	rows := RenderPhaseRows(100, []PhaseRow{
		{Label: "map", Intervals: [][2]float64{{0, 20}, {60, 80}}},
		{Label: "idle"},
	}, "ms")
	if !strings.Contains(rows, "map") || !strings.Contains(rows, "idle") {
		t.Fatalf("RenderPhaseRows output:\n%s", rows)
	}
	// Zero-total axes must not divide by zero.
	_ = RenderBars(0, []Bar{{Label: "x", From: 0, To: 0}}, "s")
	_ = RenderPhaseRows(0, []PhaseRow{{Label: "x", Intervals: [][2]float64{{0, 0}}}}, "ms")
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shuffle.rdma.packets").Add(17)
	var tr *JobTrace
	h := NewHandler(HandlerSources{Metrics: View{reg}, Trace: func() *JobTrace { return tr }})

	get := func(path string) (int, string) {
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "shuffle.rdma.packets=17") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "\"shuffle.rdma.packets\":17") {
		t.Fatalf("/metrics.json: %d %q", code, body)
	}
	if code, _ := get("/profile.json"); code != 404 {
		t.Fatalf("/profile.json with no profile: %d, want 404", code)
	}

	tr = NewJobTrace("job_http")
	tr.Add(Span{Kind: KindShuffle, Start: tr.Start(), End: tr.Start()})
	if code, body := get("/profile.json"); code != 200 || !strings.Contains(body, "job_http") {
		t.Fatalf("/profile.json: %d %q", code, body)
	}
	if code, body := get("/profile"); code != 200 || !strings.Contains(body, "shuffle profile") {
		t.Fatalf("/profile: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}
