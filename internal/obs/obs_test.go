package obs

import (
	"maps"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAddMaxGet(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Add(4)
	if got := c.Get(); got != 7 {
		t.Fatalf("Get = %d, want 7", got)
	}
	c.Max(5) // below current: no-op
	if got := c.Get(); got != 7 {
		t.Fatalf("Max(5) lowered counter to %d", got)
	}
	c.Max(11)
	if got := c.Get(); got != 11 {
		t.Fatalf("Max(11) = %d, want 11", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("same name returned a different handle")
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("x")
	if c != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All of these must be safe no-ops.
	c.Add(1)
	c.Max(1)
	h.Observe(time.Second)
	if c.Get() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := View{r}.Metrics()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sb strings.Builder
	View{r}.Metrics().WriteText(&sb) // must not panic
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Add(1)
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Get(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 100 observations: 90 at ~100µs, 9 at ~1ms, 1 at ~10ms.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 10*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	// Log2 buckets: estimates are upper bounds, accurate to 2x and never
	// below the true quantile's bucket floor.
	if s.P50 < 100*time.Microsecond || s.P50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want within [100µs, 200µs]", s.P50)
	}
	if s.P95 < time.Millisecond || s.P95 > 2*time.Millisecond {
		t.Fatalf("p95 = %v, want within [1ms, 2ms]", s.P95)
	}
	if s.P99 < time.Millisecond || s.P99 > 10*time.Millisecond {
		t.Fatalf("p99 = %v, want within [1ms, 10ms]", s.P99)
	}
	if mean := s.Mean(); mean < 100*time.Microsecond || mean > time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
	// Negative and huge observations must not panic or corrupt buckets.
	h.Observe(-time.Second)
	h.Observe(200 * time.Hour)
	if got := h.Snapshot().Count; got != 102 {
		t.Fatalf("count after extremes = %d", got)
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("c1").Add(5)
	r.Histogram("h1").Observe(time.Millisecond)
	snap := View{r}.Metrics()
	if snap.Counters["c1"] != 5 || snap.Histograms["h1"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var sb strings.Builder
	snap.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{"c1=5", "h1 count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

// TestViewCombinesRegistries: a view sums every counter over its
// registries, keeps the max of a high-water mark, and reads the same
// totals through Get, Snapshot and Metrics.
func TestViewCombinesRegistries(t *testing.T) {
	own, a, b := NewRegistry(), NewRegistry(), NewRegistry()
	own.Counter("mapred.tasktracker.heartbeats").Add(5)
	own.Histogram("ucr.send").Observe(time.Microsecond)
	a.Counter("shuffle.rdma.bytes").Add(40)
	b.Counter("shuffle.rdma.bytes").Add(2)
	a.Counter("shuffle.rdma.outstanding.peak").Max(3)
	b.Counter("shuffle.rdma.outstanding.peak").Max(7)
	v := View{own, a, nil, b}
	want := map[string]int64{"mapred.tasktracker.heartbeats": 5, "shuffle.rdma.bytes": 42, "shuffle.rdma.outstanding.peak": 7}
	for name, n := range want {
		if got := v.Get(name); got != n {
			t.Errorf("Get(%s) = %d, want %d", name, got, n)
		}
	}
	if got := v.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("Snapshot = %v, want %v", got, want)
	}
	m := v.Metrics()
	if !maps.Equal(m.Counters, want) || m.Histograms["ucr.send"].Count != 1 {
		t.Errorf("Metrics = %+v", m)
	}
}

// TestViewCountersBasic: a name no registry has reads 0 and is not
// created by the read.
func TestViewCountersBasic(t *testing.T) {
	r := NewRegistry()
	v := View{r}
	r.Counter("x").Add(3)
	r.Counter("x").Add(4)
	if v.Get("x") != 7 {
		t.Fatalf("x = %d", v.Get("x"))
	}
	if v.Get("missing") != 0 {
		t.Fatal("missing counter nonzero")
	}
	if _, ok := r.CounterSnapshot()["missing"]; ok || len(v.Snapshot()) != 1 {
		t.Fatalf("Get created a counter: %v", r.CounterSnapshot())
	}
}

func TestViewCountersSnapshotIsolated(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	snap := View{r}.Snapshot()
	snap["a"] = 99
	if (View{r}).Get("a") != 1 {
		t.Fatal("snapshot aliases the registry")
	}
}

func TestViewCountersConcurrent(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(r *Registry) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Add(1)
			}
		}([]*Registry{a, b}[i%2])
	}
	wg.Wait()
	if got := (View{a, b}).Get("n"); got != 8000 {
		t.Fatalf("n = %d", got)
	}
}
