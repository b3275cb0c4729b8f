package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilJobProfileIsDisabled(t *testing.T) {
	var p *JobProfile
	// Every recorder must be a safe no-op on the nil profile.
	p.Mark(PhaseMap, 0, time.Now())
	p.FetchObserved("node0", 0, time.Millisecond, 100, time.Now())
	p.MergeStall(time.Millisecond)
	p.SlotOccupancy(4)
	p.AddSpan(&FetchSpan{})
	if p.Report() != nil {
		t.Fatal("nil profile must report nil")
	}
	if p.JobID() != "" {
		t.Fatal("nil profile JobID")
	}
}

func TestProfileWindowsAndOverlap(t *testing.T) {
	p := NewJobProfile("job_test")
	t0 := p.Start()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	// map tasks: [0,100] and [50,150] → union [0,150]
	p.Mark(PhaseMap, 0, at(0))
	p.Mark(PhaseMap, 0, at(100))
	p.Mark(PhaseMap, 1, at(50))
	p.Mark(PhaseMap, 1, at(150))
	// shuffle for reduce 0: [80,220]
	p.Mark(PhaseShuffle, 0, at(80))
	p.Mark(PhaseShuffle, 0, at(220))
	// merge for reduce 0: [120,240]
	p.Mark(PhaseMerge, 0, at(120))
	p.Mark(PhaseMerge, 0, at(240))
	// reduce apply: [130,260]
	p.Mark(PhaseReduce, 0, at(130))
	p.Mark(PhaseReduce, 0, at(260))

	p.FetchObserved("node1", 0, 2*time.Millisecond, 4096, at(95))
	p.FetchObserved("node1", 0, 4*time.Millisecond, 4096, at(140))
	p.FetchObserved("node2", 0, time.Millisecond, 1024, at(90))
	p.MergeStall(7 * time.Millisecond)
	p.SlotOccupancy(3)
	p.SlotOccupancy(2) // lower: must not regress the high water

	rep := p.Report()
	const tol = 1.0 // ms tolerance: wall-clock marks are exact, arithmetic is float
	approx := func(got, want float64) bool { return got > want-tol && got < want+tol }

	if got := rep.OverlapMs(PhaseMap, PhaseShuffle); !approx(got, 70) { // [80,150]
		t.Fatalf("map∩shuffle = %.2f, want ≈70", got)
	}
	if got := rep.OverlapMs(PhaseShuffle, PhaseMerge); !approx(got, 100) { // [120,220]
		t.Fatalf("shuffle∩merge = %.2f, want ≈100", got)
	}
	if got := rep.OverlapMs(PhaseMerge, PhaseReduce); !approx(got, 110) { // [130,240]
		t.Fatalf("merge∩reduce = %.2f, want ≈110", got)
	}
	if got := rep.OverlapMs("map", "nope"); got != 0 {
		t.Fatalf("unknown pair overlap = %.2f", got)
	}

	// TTFB for reduce 0: shuffle opened at 80, first byte at 90 → 10ms.
	if len(rep.ReduceTTFB) != 1 || !approx(rep.ReduceTTFB[0].Ms, 10) {
		t.Fatalf("reduce TTFB = %+v, want ≈10ms", rep.ReduceTTFB)
	}
	if !approx(rep.TTFBMs, 10) {
		t.Fatalf("TTFB = %.2f, want ≈10", rep.TTFBMs)
	}

	if rep.SlotPeak != 3 {
		t.Fatalf("slot peak = %d, want 3", rep.SlotPeak)
	}
	if !approx(rep.MergeStallMs, 7) {
		t.Fatalf("merge stall = %.2f, want ≈7", rep.MergeStallMs)
	}
	if rep.Fetches != 3 {
		t.Fatalf("fetches = %d", rep.Fetches)
	}
	if len(rep.Hosts) != 2 || rep.Hosts[0].Host != "node1" || rep.Hosts[0].Fetches != 2 {
		t.Fatalf("hosts = %+v", rep.Hosts)
	}
	if rep.Hosts[0].P50Us <= 0 || rep.Hosts[0].P99Us < rep.Hosts[0].P50Us {
		t.Fatalf("host percentiles not ordered: %+v", rep.Hosts[0])
	}

	// Union length of map phase = 150ms despite overlapping windows.
	for _, ph := range rep.Phases {
		if ph.Phase == PhaseMap && !approx(ph.UnionMs, 150) {
			t.Fatalf("map union = %.2f, want ≈150", ph.UnionMs)
		}
	}
}

func TestProfileSpansCapAndOrder(t *testing.T) {
	p := NewJobProfile("j")
	t0 := p.Start()
	for i := 0; i < maxSpans+10; i++ {
		p.AddSpan(&FetchSpan{
			Host: "node0", Reduce: 1, MapID: i, Offset: int64(i * 128),
			Enqueued:  t0.Add(time.Duration(i) * time.Microsecond),
			Sent:      t0.Add(time.Duration(i)*time.Microsecond + 10*time.Microsecond),
			Received:  t0.Add(time.Duration(i)*time.Microsecond + 200*time.Microsecond),
			Delivered: t0.Add(time.Duration(i)*time.Microsecond + 250*time.Microsecond),
			SlotWait:  time.Microsecond,
			Bytes:     128,
		})
	}
	rep := p.Report()
	if len(rep.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(rep.Spans), maxSpans)
	}
	if rep.SpansDropped != 10 {
		t.Fatalf("dropped = %d, want 10", rep.SpansDropped)
	}
	sp := rep.Spans[0]
	if sp.CorrID != "j/r1/m0@0" {
		t.Fatalf("corr id = %q", sp.CorrID)
	}
	if sp.QueueUs != 10 || sp.RDMAUs != 190 || sp.DeliverUs != 50 || sp.TotalUs != 250 {
		t.Fatalf("span segments = %+v", sp)
	}
}

func TestReportJSONRoundTripAndText(t *testing.T) {
	p := NewJobProfile("job_rt")
	t0 := p.Start()
	p.Mark(PhaseShuffle, 0, t0)
	p.Mark(PhaseShuffle, 0, t0.Add(100*time.Millisecond))
	p.Mark(PhaseMerge, 0, t0.Add(20*time.Millisecond))
	p.Mark(PhaseMerge, 0, t0.Add(120*time.Millisecond))
	p.FetchObserved("node1", 0, time.Millisecond, 64, t0.Add(10*time.Millisecond))
	rep := p.Report()

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
	var prof *JobProfile
	h := NewHandler(HandlerSources{Registry: reg, Profile: func() *Report { return prof.Report() }})

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

	prof = NewJobProfile("job_http")
	prof.Mark(PhaseShuffle, 0, prof.Start())
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
