package mapred_test

import (
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/obs"
)

// TestClusterTelemetryViewAggregatesNodeMetrics runs a real RDMA
// TeraSort and checks that every reader of the cluster's counters
// combines the same registries by the same rule the moment the job
// returns: each node reports its own registry, Counters().Snapshot() and
// /metrics.json read the nodes' counters plus the cluster's own, and the
// ClusterReport's totals (/cluster.json) are the nodes' alone — sums,
// with the max for a .peak. A decommissioned node keeps its counters and
// reads stale.
func TestClusterTelemetryViewAggregatesNodeMetrics(t *testing.T) {
	conf := testConf()
	// Enough expiry margin that a race-detector scheduling stall can't
	// spuriously decommission a node mid-job (beats tick at expiry/4).
	conf.SetInt(config.KeyTrackerExpiry, 200)
	conf.Set(config.KeyObsHTTPAddr, "127.0.0.1:0")
	// The RDMA engine, so reducer nodes count fetch-side work
	// (shuffle.rdma.bytes) alongside the mapper nodes' output.
	c, err := mapred.NewCluster(3, conf, core.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	runTeraSort(t, c, 10000, 3)

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + c.ObsAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s does not decode: %v", path, err)
		}
	}
	// Heartbeats keep counting in the cluster's own registry after the
	// job, so the readers are compared over a pass in which the view did
	// not move.
	var rep *obs.ClusterReport
	for try := 0; ; try++ {
		view := c.Counters().Snapshot()
		rep = c.ClusterReport()
		var served obs.ClusterReport
		getJSON("/cluster.json", &served)
		var metrics obs.Snapshot
		getJSON("/metrics.json", &metrics)
		own := c.Registry().CounterSnapshot()
		if again := c.Counters().Snapshot(); !maps.Equal(view, again) {
			if try == 20 {
				t.Fatal("counters never held still for one comparison")
			}
			continue
		}
		want := maps.Clone(rep.Totals)
		for name, v := range own {
			want[name] = obs.Combine(name, want[name], v)
		}
		if !maps.Equal(view, want) {
			t.Fatalf("Counters().Snapshot() = %v, want the report's totals with the cluster's own %v", view, want)
		}
		if !maps.Equal(metrics.Counters, view) {
			t.Fatalf("/metrics.json counters %v, want %v", metrics.Counters, view)
		}
		if !maps.Equal(served.Totals, rep.Totals) {
			t.Fatalf("/cluster.json totals %v, want %v", served.Totals, rep.Totals)
		}
		break
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("cluster report = %+v, want 3 nodes", rep)
	}
	sum, peak := make(map[string]int64), int64(0)
	reporting := 0
	for i, n := range rep.Nodes {
		tt := c.Trackers()[i]
		if n.Host != tt.Host() || n.Stale {
			t.Fatalf("node %d = %s stale=%v, want live %s", i, n.Host, n.Stale, tt.Host())
		}
		if want := tt.Counters().CounterSnapshot(); !maps.Equal(n.Totals, want) {
			t.Fatalf("%s totals = %v, want its registry's %v", n.Host, n.Totals, want)
		}
		for name, v := range n.Totals {
			sum[name] += v
		}
		peak = max(peak, n.Totals["shuffle.rdma.outstanding.peak"])
		if n.Totals["map.output.bytes"] > 0 || n.Totals["shuffle.rdma.bytes"] > 0 {
			reporting++
		}
	}
	sum["shuffle.rdma.outstanding.peak"] = peak
	if reporting < 2 || !reflect.DeepEqual(rep.Totals, sum) {
		t.Fatalf("%d nodes moved bytes; cluster totals %v, want node sums (max of the peak) %v", reporting, rep.Totals, sum)
	}

	// Kill a node and wait out its expiry: once decommissioned it reads
	// stale and keeps the totals it had.
	dead := rep.Nodes[2]
	if err := c.KillTracker(dead.Host); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Counters().Get("mapred.tasktracker.decommissioned") == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%s was never decommissioned", dead.Host)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := c.ClusterReport()
	for i, n := range after.Nodes {
		if n.Stale != (n.Host == dead.Host) {
			t.Fatalf("after decommissioning %s: %s stale=%v", dead.Host, n.Host, n.Stale)
		}
		if !reflect.DeepEqual(n.Totals, rep.Nodes[i].Totals) {
			t.Fatalf("%s totals moved from %v to %v", n.Host, rep.Nodes[i].Totals, n.Totals)
		}
	}
	if c.Counters().Get("mapred.tasktracker.heartbeats") == 0 {
		t.Fatal("no heartbeats counted")
	}
}

// TestJobFailureErrorIncludesSchedulerEvents pins the failure-forensics
// contract: when a job fails, the error carries the scheduler's event
// log for the job's window — every retry with its cause, then the
// exhaustion that failed the job — so the evidence arrives with the
// error instead of having to be scraped afterwards.
func TestJobFailureErrorIncludesSchedulerEvents(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/evt/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k")}}))
	boom := errors.New("boom")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "evterr", Input: []string{"/evt/in"}, Output: "/evt/out",
		Mapper: func(_, _ []byte, _ func(k, v []byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	msg := err.Error()
	for _, want := range []string{
		"scheduler events during job:",
		obs.EvAttemptRetried,
		obs.EvAttemptExhausted,
		`cause="map function: boom"`,
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("failure error missing %q:\n%s", want, msg)
		}
	}

	// The log itself holds the full sequence: default 4 attempts ⇒ 3
	// retries then one exhaustion for the task that sank the job.
	retried, exhausted := 0, 0
	for _, e := range c.Events().Events() {
		switch e.Type {
		case obs.EvAttemptRetried:
			retried++
		case obs.EvAttemptExhausted:
			exhausted++
			if e.Task == "" || e.Host == "" {
				t.Fatalf("exhaustion event missing task/host: %+v", e)
			}
		}
	}
	if retried != 3 || exhausted != 1 {
		t.Fatalf("events: %d retried / %d exhausted, want 3 / 1\n%s",
			retried, exhausted, obs.FormatEvents(c.Events().Events()))
	}
}
