package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"rdmamr/internal/mapred"
)

func TestMedianAndMAD(t *testing.T) {
	for _, c := range []struct {
		xs       []float64
		med, mad float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 0},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		{[]float64{1, 1, 2, 2, 4, 6, 9}, 2, 1},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := mad(c.xs); got != c.mad {
			t.Errorf("mad(%v) = %v, want %v", c.xs, got, c.mad)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// No percentile is reported without at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{20, 0.90, 18, 2, false},
		{100, 0.90, 90, 10, true},
		{109, 0.90, 99, 10, true},
		{99, 0.90, 90, 9, false},
		{300, 0.90, 270, 30, true},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{0, 0.90, 0, 0, false},
	} {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %d beyond, ok %v; want %v, %d, %v",
				c.n, c.p, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
}

func TestCompareBounds(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "mb_per_s", Better: "higher", Bound: 0.10}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if w := worsening(lower, 100, 109); !near(w, 0.09) {
		t.Errorf("lower-is-better 100→109 worsens by %v, want 0.09", w)
	}
	if w := worsening(higher, 100, 91); !near(w, 0.09) {
		t.Errorf("higher-is-better 100→91 worsens by %v, want 0.09", w)
	}
	if w := worsening(higher, 100, 120); !near(w, -0.20) {
		t.Errorf("higher-is-better 100→120 worsens by %v, want -0.20", w)
	}

	run := func(ms, mbs float64, attempted, failed int) *runResult {
		return &runResult{Workload: "w", Attempted: attempted, Failed: failed, Metrics: map[string]sample{
			"op_ms_p50": {Value: ms}, "mb_per_s": {Value: mbs}}}
	}
	defs := []metricDef{lower, higher}
	outside := func(a, b *runResult) []string {
		var names []string
		for _, v := range compareRuns(defs, a, b) {
			if v.Outside {
				names = append(names, v.Metric)
			}
		}
		return names
	}
	base := run(100, 100, 20, 0)
	for _, c := range []struct {
		name string
		b    *runResult
		want []string
	}{
		{"inside both bounds", run(109, 91, 20, 0), nil},
		{"better is never outside", run(50, 200, 20, 0), nil},
		{"slower by more than the bound", run(111, 100, 20, 0), []string{"op_ms_p50"}},
		{"throughput down by more than the bound", run(100, 89, 20, 0), []string{"mb_per_s"}},
		{"a different operation count", run(100, 100, 19, 0), []string{"ops_total"}},
		{"one more failure", run(100, 100, 20, 1), []string{"ops_failed"}},
	} {
		if got := outside(base, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: outside = %v, want %v", c.name, got, c.want)
		}
	}
	// The ops_failed rule compares with the parent: no more may fail.
	if got := outside(run(100, 100, 20, 2), run(100, 100, 20, 2)); got != nil {
		t.Errorf("equal failure counts: outside = %v, want none", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, tera := range []bool{true, false} {
		a := plantPartitions(7, 3, 2, 8<<10, tera)
		b := plantPartitions(7, 3, 2, 8<<10, tera)
		c := plantPartitions(8, 3, 2, 8<<10, tera)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("tera=%v: the same seed planted different partitions", tera)
		}
		if reflect.DeepEqual(a.want, c.want) {
			t.Errorf("tera=%v: different seeds planted the same partitions", tera)
		}
		var total digest
		for _, d := range a.want {
			total.merge(d)
		}
		if total.Count == 0 || a.runBytes <= total.Bytes {
			t.Errorf("tera=%v: planted %d records, %d payload bytes in %d run bytes", tera, total.Count, total.Bytes, a.runBytes)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, OpID: 1, Layer: "benchmark", Name: "job", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, OpID: 1, Layer: "mapred", Name: "RunJob", StartNs: 10, EndNs: 70},
		{ID: 3, Parent: 1, OpID: 1, Layer: "workload", Name: "TeraValidate", StartNs: 70, EndNs: 95},
		// Overlapping children are covered once; a child running past its
		// parent only covers the part inside it.
		{ID: 4, OpID: 2, Layer: "benchmark", Name: "round", StartNs: 200, EndNs: 300},
		{ID: 5, Parent: 4, OpID: 3, Layer: "benchmark", Name: "reduce_fetch", StartNs: 210, EndNs: 260},
		{ID: 6, Parent: 4, OpID: 4, Layer: "benchmark", Name: "reduce_fetch", StartNs: 240, EndNs: 310},
		{ID: 7, Parent: 5, OpID: 3, Layer: "core", Name: "drain", StartNs: 220, EndNs: 260},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 15, 2: 60, 3: 25, 4: 10, 5: 10, 6: 70, 7: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	perLayer, gap := layerSelfTimes(spans)
	if gap != 0 {
		t.Errorf("well-formed spans have gap %v, want 0", gap)
	}
	wantLayers := map[string]int64{"benchmark": 15 + 10 + 10 + 70, "mapred": 60, "workload": 25, "core": 40}
	if !reflect.DeepEqual(perLayer, wantLayers) {
		t.Errorf("per-layer self time = %v, want %v", perLayer, wantLayers)
	}
	// A span left open (EndNs 0) breaks the sum for its operation.
	spans[2].EndNs = 0
	if _, gap := layerSelfTimes(spans); gap < 0.05 {
		t.Errorf("an unclosed span gives gap %v, want it reported", gap)
	}

	if got := durations(spans, "reduce_fetch"); !reflect.DeepEqual(got, []float64{50, 70}) {
		t.Errorf("durations = %v", got)
	}
	var off *tracer
	if id := off.begin(off.newOp(), 0, "x", "y"); id != 0 || off.snapshot() != nil {
		t.Errorf("a nil tracer recorded something")
	}
	off.end(0)
}

// The tables in spec.go are what BENCHMARK.json promises the driver.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, spec %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

// miniature shrinks a workload so that a whole run takes well under a
// second: two timed operations after one warm-up.
func miniature(w workload) workload {
	w.OpsPer20s, w.Warmup = 40, 1
	if w.Tera != nil {
		sz := *w.Tera
		sz.Nodes, sz.Rows, sz.BlockBytes, sz.Reduces = 2, 3000, 64<<10, 2
		w.Tera = &sz
	} else {
		sz := *w.Shuffle
		sz.Nodes, sz.Maps, sz.Reduces, sz.PartBytes = 2, 4, 2, min(sz.PartBytes, 64<<10)
		w.Shuffle = &sz
	}
	return w
}

func TestMiniatureRuns(t *testing.T) {
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runWorkload(w, 5, 1, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Ops != 2 || plain.Failed != 0 || plain.Attempted < plain.Ops {
				t.Errorf("untraced: %d ops, %d attempted, %d failed", plain.Ops, plain.Attempted, plain.Failed)
			}
			for _, d := range endToEnd {
				// CPU time is accounted in scheduler ticks, and a miniature
				// run can finish inside one.
				s, ok := plain.Metrics[d.Name]
				if !ok || s.Unit != d.Unit || s.Value < 0 || (s.Value == 0 && d.Name != "cpu_s_per_gb") {
					t.Errorf("untraced: %s = %+v, want a positive value in %s", d.Name, s, d.Unit)
				}
			}
			line, err := contractLine(plain, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&parsed); err != nil {
				t.Fatalf("result line %s: %v", line, err)
			}
			if parsed.Correct == nil || !*parsed.Correct || parsed.Attempted == nil || *parsed.Attempted < 1 ||
				parsed.Failed == nil || len(parsed.Metrics) != len(endToEnd) {
				t.Errorf("result line %s", line)
			}

			// Same seed, same work: counts and bytes repeat exactly.
			again, err := runWorkload(w, 5, 1, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again.Attempted != plain.Attempted || again.Bytes != plain.Bytes {
				t.Errorf("second run of the seed: %d attempted, %d bytes; first %d, %d",
					again.Attempted, again.Bytes, plain.Attempted, plain.Bytes)
			}
			for _, name := range []string{"shuffle.rdma.packets", "shuffle.rdma.bytes", "shuffle.http.bytes"} {
				if again.Counters[name] != plain.Counters[name] {
					t.Errorf("second run of the seed: %s = %d, first %d", name, again.Counters[name], plain.Counters[name])
				}
			}

			traced, err := runWorkload(w, 5, 1, true, map[string]sample{"verbs.send_recv_4k_ns": {Value: 1, Unit: "ns"}})
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 || len(traced.spans) == 0 {
				t.Fatalf("traced: %d failed, %d spans", traced.Failed, len(traced.spans))
			}
			for _, s := range traced.spans {
				if s.Layer == "" || s.Name == "" || s.OpID == 0 || s.EndNs < s.StartNs {
					t.Errorf("malformed span %+v", s)
				}
			}
			if _, gap := layerSelfTimes(traced.spans); gap > 0.05 {
				t.Errorf("self times miss the root span by %.1f%%", gap*100)
			}
			if _, ok := traced.Metrics["obs.tracing_overhead_pct"]; !ok {
				t.Error("traced run reports no obs.tracing_overhead_pct")
			}
			if traced.Metrics["verbs.send_recv_4k_ns"].Value != 1 {
				t.Error("traced run dropped the ladder's metrics")
			}
			known := make(map[string]bool)
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range traced.Metrics {
				if !known[name] {
					t.Errorf("traced run reports %s, which spec.go does not list", name)
				}
			}
		})
	}
}

// A partition corrupted after planting must fail exactly the one reducer
// fetch that reads it.
func TestCorruptedPartitionFails(t *testing.T) {
	w := miniature(*workloadByName("shuffle_small"))
	inst, err := setupShuffle(*w.Shuffle, 9, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*shuffleInstance)
	ctx := context.Background()
	if failed := s.op(ctx, nil); failed != 0 {
		t.Fatalf("clean round: %d fetches failed", failed)
	}
	run := append([]byte(nil), s.data.runs[1][0]...)
	run[len(run)-13] ^= 0xff // last value byte, before the 12-byte trailer
	s.cluster.Trackers()[1%s.sz.Nodes].Store().Overwrite(mapred.MapOutputKey(s.job.ID, 1, 0), run)
	if failed := s.op(ctx, nil); failed != 1 {
		t.Errorf("round over a corrupted partition: %d fetches failed, want 1", failed)
	}
}

func TestPathAssertions(t *testing.T) {
	bulk := &shuffleInstance{sz: shuffleSizes{Engine: "osu-ib-rdma", Caching: true}}
	small := &shuffleInstance{sz: shuffleSizes{Engine: "osu-ib-rdma", Caching: false}}
	osu := &teraInstance{sz: teraSizes{Engine: "osu-ib-rdma"}}
	http := &teraInstance{sz: teraSizes{Engine: "vanilla-http"}}
	for _, c := range []struct {
		name  string
		inst  instance
		delta map[string]int64
		ok    bool
	}{
		{"bulk on its path", bulk, map[string]int64{"shuffle.rdma.bytes": 1, "cache.hits": 9}, true},
		{"bulk missing the cache", bulk, map[string]int64{"shuffle.rdma.bytes": 1, "cache.misses": 1}, false},
		{"small on its path", small, map[string]int64{"shuffle.rdma.bytes": 1, "tracker.mapoutput.disk.reads": 4}, true},
		{"small hitting a cache", small, map[string]int64{"shuffle.rdma.bytes": 1, "tracker.mapoutput.disk.reads": 4, "cache.hits": 1}, false},
		{"small without disk reads", small, map[string]int64{"shuffle.rdma.bytes": 1}, false},
		{"osu job over rdma", osu, map[string]int64{"shuffle.rdma.bytes": 1}, true},
		{"osu job without rdma", osu, map[string]int64{"shuffle.http.bytes": 1}, false},
		{"http job over http", http, map[string]int64{"shuffle.http.bytes": 1}, true},
		{"http job touching rdma", http, map[string]int64{"shuffle.http.bytes": 1, "shuffle.rdma.bytes": 1}, false},
	} {
		if err := c.inst.assertPath(c.delta); (err == nil) != c.ok {
			t.Errorf("%s: assertPath = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
