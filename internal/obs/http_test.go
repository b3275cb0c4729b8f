package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, rec.Header().Get("Content-Type"), string(body)
}

// TestHandlerNilRegistry pins the fix for the nil-registry crash class:
// a handler built with no registry at all must serve every endpoint
// without panicking — /metrics empty, /metrics.json an empty snapshot.
func TestHandlerNilRegistry(t *testing.T) {
	h := NewHandler(HandlerSources{})
	code, ct, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics with nil registry: status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if body != "" {
		t.Errorf("/metrics with nil registry should be empty, got %q", body)
	}
	code, ct, body = get(t, h, "/metrics.json")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics.json: status %d type %q", code, ct)
	}
	for _, key := range []string{`"counters"`, `"histograms"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/metrics.json missing %s: %s", key, body)
		}
	}
}

func TestHandlerLegacyEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shuffle.rdma.bytes").Add(4096)
	var tr *JobTrace
	h := NewHandler(HandlerSources{Metrics: View{reg}, Trace: func() *JobTrace { return tr }})

	code, ct, body := get(t, h, "/")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("index: status %d type %q", code, ct)
	}
	for _, ep := range []string{"/metrics", "/metrics.json", "/profile", "/profile.json",
		"/cluster", "/cluster.json", "/events", "/events.json", "/trace.json"} {
		if !strings.Contains(body, ep) {
			t.Errorf("index does not list %s", ep)
		}
	}

	if code, _, body = get(t, h, "/metrics"); code != http.StatusOK || !strings.Contains(body, "shuffle.rdma.bytes=4096") {
		t.Errorf("/metrics: status %d body %q", code, body)
	}
	if code, ct, body = get(t, h, "/metrics.json"); code != http.StatusOK ||
		!strings.HasPrefix(ct, "application/json") || !strings.Contains(body, `"shuffle.rdma.bytes":4096`) {
		t.Errorf("/metrics.json: status %d type %q body %q", code, ct, body)
	}

	// No record yet: both views' renderings 404 with a hint.
	for _, p := range []string{"/profile", "/profile.json", "/trace.json"} {
		if code, _, body = get(t, h, p); code != http.StatusNotFound || !strings.Contains(body, "mapred.obs.profile.enabled") {
			t.Errorf("%s without a record: status %d body %q", p, code, body)
		}
	}
	tr = NewJobTrace("job_0001_t")
	tr.Add(Span{Kind: KindFetch, Peer: "node1", Bytes: 4096, Start: tr.Start(), End: tr.Start().Add(10 * time.Millisecond)})
	if code, ct, body = get(t, h, "/profile"); code != http.StatusOK ||
		!strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "job_0001_t") {
		t.Errorf("/profile: status %d type %q body %q", code, ct, body)
	}
	if code, ct, _ = get(t, h, "/profile.json"); code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/profile.json: status %d type %q", code, ct)
	}
	if code, _, body = get(t, h, "/trace.json"); code != http.StatusOK || !strings.Contains(body, "job_0001_t/r0@0/m0+0") {
		t.Errorf("/trace.json from the same record: status %d body %q", code, body)
	}

	// Unknown paths 404; the legacy handler has no telemetry sources, so
	// the new endpoints 404 cleanly rather than crashing.
	if code, _, _ = get(t, h, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d", code)
	}
	for _, p := range []string{"/cluster", "/cluster.json", "/events", "/events.json"} {
		if code, _, _ = get(t, h, p); code != http.StatusNotFound {
			t.Errorf("%s without source: status %d", p, code)
		}
	}
}

func TestHandlerTelemetryEndpoints(t *testing.T) {
	cluster := &ClusterReport{}
	cluster.Add("node1", false, map[string]int64{"shuffle.rdma.bytes": 77})
	events := NewEventLog(8)
	events.Append(Event{Type: EvHeartbeatExpired, Host: "node2", Cause: "no heartbeat"})
	tr := NewJobTrace("job_0002_t")
	tr.Add(Span{Kind: KindMap, Node: "node1", Start: tr.Start(), End: tr.Start().Add(time.Millisecond)})

	h := NewHandler(HandlerSources{
		Cluster: func() *ClusterReport { return cluster },
		Events:  events,
		Trace:   func() *JobTrace { return tr },
	})

	code, ct, body := get(t, h, "/cluster")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "node1") {
		t.Errorf("/cluster: status %d type %q body %q", code, ct, body)
	}
	if code, ct, body = get(t, h, "/cluster.json"); code != http.StatusOK ||
		!strings.HasPrefix(ct, "application/json") || !strings.Contains(body, `"shuffle.rdma.bytes": 77`) {
		t.Errorf("/cluster.json: status %d type %q body %q", code, ct, body)
	}
	if code, _, body = get(t, h, "/events"); code != http.StatusOK || !strings.Contains(body, EvHeartbeatExpired) {
		t.Errorf("/events: status %d body %q", code, body)
	}
	if code, ct, body = get(t, h, "/events.json"); code != http.StatusOK ||
		!strings.HasPrefix(ct, "application/json") || !strings.Contains(body, `"heartbeat.expired"`) {
		t.Errorf("/events.json: status %d type %q body %q", code, ct, body)
	}
	code, ct, body = get(t, h, "/trace.json")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/trace.json: status %d type %q", code, ct)
	}
	if _, err := ValidateChromeTrace([]byte(body)); err != nil {
		t.Errorf("/trace.json served malformed trace: %v", err)
	}

	// A Trace source that returns nil (the record off this job) still 404s.
	h = NewHandler(HandlerSources{Trace: func() *JobTrace { return nil }})
	for _, p := range []string{"/trace.json", "/profile"} {
		if code, _, body = get(t, h, p); code != http.StatusNotFound || !strings.Contains(body, "mapred.obs.profile.enabled") {
			t.Errorf("%s nil-returning source: status %d body %q", p, code, body)
		}
	}
}

func TestHandlerJobsEndpoints(t *testing.T) {
	rep := &JobsReport{
		MaxRunning: 2, Running: 1, Queued: 1,
		TotalMapSlots: 16, TotalReduceSlots: 16,
		Jobs: []JobSummary{
			{ID: "job_0001_sort", Name: "sort", State: JobStateRunning,
				Maps: 8, MapsDone: 3, Reduces: 4,
				MapSlots: 6, MapShare: 0.375},
			{ID: "job_0002_grep", Name: "grep", State: JobStateQueued,
				Maps: 8, Reduces: 4},
		},
	}
	h := NewHandler(HandlerSources{Jobs: func() *JobsReport { return rep }})

	code, ct, body := get(t, h, "/jobs")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/jobs: status %d type %q", code, ct)
	}
	for _, want := range []string{"1 running, 1 queued (max running 2)",
		"job_0001_sort", "maps 3/8", "m=6 (38%)", "job_0002_grep", "queued"} {
		if !strings.Contains(body, want) {
			t.Errorf("/jobs body missing %q:\n%s", want, body)
		}
	}
	if code, ct, body = get(t, h, "/jobs.json"); code != http.StatusOK ||
		!strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/jobs.json: status %d type %q", code, ct)
	}
	var decoded JobsReport
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/jobs.json: invalid JSON: %v", err)
	}
	if decoded.MaxRunning != 2 || len(decoded.Jobs) != 2 || decoded.Jobs[0].MapSlots != 6 {
		t.Errorf("/jobs.json round-trip = %+v", decoded)
	}

	// No JobTracker source (or one that reports nothing): 404.
	for _, h := range []http.Handler{
		NewHandler(HandlerSources{}),
		NewHandler(HandlerSources{Jobs: func() *JobsReport { return nil }}),
	} {
		for _, p := range []string{"/jobs", "/jobs.json"} {
			if code, _, _ := get(t, h, p); code != http.StatusNotFound {
				t.Errorf("%s without a jobtracker: status %d", p, code)
			}
		}
	}
}
