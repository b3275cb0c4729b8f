package core_test

import (
	"encoding/json"
	"testing"

	"rdmamr/internal/config"
	"rdmamr/internal/obs"
)

// TestShuffleProfileEndToEnd runs a real TeraSort on the OSU engine with
// the job's record on and checks its profile view has fetch spans with
// all four segments, per-host latency percentiles, TTFB, the ring-slot
// high-water mark, and a measurably overlapped shuffle/merge — and that
// its Chrome view agrees: one fetch event per fetch, under the same
// correlation ID.
func TestShuffleProfileEndToEnd(t *testing.T) {
	conf := rdmaConf()
	conf.SetBool(config.KeyObsProfile, true)
	c := newRDMACluster(t, 3, conf)
	res := runTeraSort(t, c, 3000, 3)

	rep := res.Profile
	if rep == nil || res.Trace == nil {
		t.Fatalf("record on but JobResult.Profile = %v, .Trace = %v", rep, res.Trace)
	}
	if rep.JobID != res.JobID {
		t.Fatalf("profile job %q, result job %q", rep.JobID, res.JobID)
	}
	if rep.Fetches == 0 {
		t.Fatal("no fetches observed")
	}
	if rep.SlotPeak < 1 {
		t.Fatalf("slot occupancy high-water = %d", rep.SlotPeak)
	}
	if len(rep.Hosts) == 0 {
		t.Fatal("no per-host stats")
	}
	for _, h := range rep.Hosts {
		if h.Fetches <= 0 || h.Bytes <= 0 {
			t.Fatalf("host %s: %+v", h.Host, h)
		}
		if h.P50Us <= 0 || h.P95Us < h.P50Us || h.P99Us < h.P95Us {
			t.Fatalf("host %s percentiles not ordered: %+v", h.Host, h)
		}
	}
	if len(rep.ReduceTTFB) != 3 {
		t.Fatalf("TTFB for %d reduces, want 3", len(rep.ReduceTTFB))
	}
	for _, r := range rep.ReduceTTFB {
		if r.Ms < 0 {
			t.Fatalf("negative TTFB: %+v", r)
		}
	}
	// The streaming engine's raison d'être: shuffle and merge overlap.
	if ov := rep.OverlapMs(obs.PhaseShuffle, obs.PhaseMerge); ov <= 0 {
		t.Fatalf("shuffle∩merge overlap = %.3f ms, want > 0", ov)
	}
	if len(rep.Spans) == 0 {
		t.Fatal("no fetch spans sampled")
	}
	for _, sp := range rep.Spans {
		if sp.TotalUs <= 0 || sp.RDMAUs < 0 || sp.QueueUs < 0 || sp.DeliverUs < 0 {
			t.Fatalf("degenerate span: %+v", sp)
		}
		if sp.CorrID == "" || sp.Host == "" {
			t.Fatalf("span missing identity: %+v", sp)
		}
	}
	// With profiling on, the fabric attaches to the registry: the ucr
	// and verbs layers must have reported traffic under their own names.
	for _, name := range []string{"ucr.dials", "ucr.recv.msgs", "ucr.recv.bytes", "verbs.wc.total", "verbs.wc.bytes"} {
		if c.Counters().Get(name) == 0 {
			t.Errorf("counter %s = 0 after a profiled job", name)
		}
	}
	snap := c.Counters().Metrics()
	// (Map outputs are cache-resident by the time the reducers ask, so
	// the payload moves by the copiers' READs.)
	for _, name := range []string{"ucr.send", "ucr.rdma.read"} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty after a profiled job", name)
		}
	}
	// Both renderings must work on a real report.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if txt := rep.Text(); len(txt) == 0 {
		t.Fatal("empty text report")
	}

	// The Chrome view of the same record.
	chrome, err := res.Trace.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateChromeTrace(chrome)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if rep.SpansDropped != 0 || int64(stats.Cats[obs.CatFetch]) != rep.Fetches || int64(len(rep.Spans)) != rep.Fetches {
		t.Fatalf("trace has %d fetch events, report %d fetches and %d spans (%d dropped)",
			stats.Cats[obs.CatFetch], rep.Fetches, len(rep.Spans), rep.SpansDropped)
	}
	for _, sp := range rep.Spans {
		if n := stats.Corrs[sp.CorrID]; n != 1 {
			t.Fatalf("report span %s is the corr of %d fetch events, want 1", sp.CorrID, n)
		}
	}
}

// TestProfileDisabledByDefault checks the other side of the contract:
// without mapred.obs.profile.enabled, no record is kept anywhere.
func TestProfileDisabledByDefault(t *testing.T) {
	c := newRDMACluster(t, 2, nil)
	res := runTeraSort(t, c, 800, 2)
	if res.Profile != nil || res.Trace != nil {
		t.Fatal("JobResult.Profile or .Trace set without mapred.obs.profile.enabled")
	}
	if c.TraceReport() != nil {
		t.Fatal("cluster serves a record without mapred.obs.profile.enabled")
	}
}
