package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// HandlerSources feeds the debug HTTP surface. Every field may be nil:
// a nil Metrics view renders as empty, nil functions and a nil EventLog
// turn their endpoints into clean 404s. Function sources are
// called per request so the handler always serves the current job.
type HandlerSources struct {
	// Metrics backs /metrics and /metrics.json.
	Metrics View
	// Trace returns the current (or last finished) job's record, whose
	// two views /profile(.json) and /trace.json serve.
	Trace func() *JobTrace
	// Cluster returns the per-node telemetry for /cluster(.json).
	Cluster func() *ClusterReport
	// Events backs /events and /events.json.
	Events *EventLog
	// Jobs returns the JobTracker's job listing for /jobs(.json).
	Jobs func() *JobsReport
}

// NewHandler serves the debug observability surface over HTTP:
//
//	/metrics       the view's metrics rendered as sorted text
//	/metrics.json  the same snapshot (counters, histograms) as JSON
//	/profile       current job's shuffle profile, human-readable
//	/profile.json  the same report as JSON (404 when none)
//	/cluster       per-node + aggregate telemetry, human-readable
//	/cluster.json  the same as JSON (404 when no cluster view)
//	/events        structured scheduler event log, one per line
//	/events.json   the same as JSON (404 when no event log)
//	/trace.json    job trace as Chrome trace-event JSON (404 when none)
//	/jobs          JobTracker job listing, human-readable
//	/jobs.json     the same as JSON (404 when no JobTracker)
//	/              a tiny index
func NewHandler(src HandlerSources) http.Handler {
	trace := func() *JobTrace {
		if src.Trace == nil {
			return nil
		}
		return src.Trace()
	}
	const off = "no job record (enable mapred.obs.profile.enabled)"
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "rdmamr debug endpoint")
		fmt.Fprintln(w, "  /metrics       metrics as text")
		fmt.Fprintln(w, "  /metrics.json  metrics as JSON")
		fmt.Fprintln(w, "  /profile       shuffle profile as text")
		fmt.Fprintln(w, "  /profile.json  shuffle profile as JSON")
		fmt.Fprintln(w, "  /cluster       per-node telemetry as text")
		fmt.Fprintln(w, "  /cluster.json  per-node telemetry as JSON")
		fmt.Fprintln(w, "  /events        scheduler event log as text")
		fmt.Fprintln(w, "  /events.json   scheduler event log as JSON")
		fmt.Fprintln(w, "  /trace.json    job trace (Chrome trace-event JSON)")
		fmt.Fprintln(w, "  /jobs          jobtracker job listing as text")
		fmt.Fprintln(w, "  /jobs.json     jobtracker job listing as JSON")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// An empty view renders as empty rather than panicking (this
		// endpoint's contract is pinned by TestHandlerNilRegistry).
		src.Metrics.Metrics().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(src.Metrics.Metrics())
	})
	mux.HandleFunc("/profile.json", func(w http.ResponseWriter, r *http.Request) {
		rep := trace().Report()
		if rep == nil {
			http.Error(w, off, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		out, err := rep.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		rep := trace().Report()
		if rep == nil {
			http.Error(w, off, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprint(w, rep.Text())
	})
	mux.HandleFunc("/cluster.json", func(w http.ResponseWriter, r *http.Request) {
		rep := clusterReport(src)
		if rep == nil {
			http.Error(w, "no cluster view", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		out, err := rep.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		rep := clusterReport(src)
		if rep == nil {
			http.Error(w, "no cluster view", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
	})
	mux.HandleFunc("/events.json", func(w http.ResponseWriter, r *http.Request) {
		if src.Events == nil {
			http.Error(w, "no event log", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.Events.Snapshot())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if src.Events == nil {
			http.Error(w, "no event log", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		src.Events.WriteText(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		tr := trace()
		if tr == nil {
			http.Error(w, off, http.StatusNotFound)
			return
		}
		out, err := tr.ChromeTrace()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/jobs.json", func(w http.ResponseWriter, r *http.Request) {
		rep := jobsReport(src)
		if rep == nil {
			http.Error(w, "no jobtracker", http.StatusNotFound)
			return
		}
		out, err := rep.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		rep := jobsReport(src)
		if rep == nil {
			http.Error(w, "no jobtracker", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
	})
	return mux
}

func jobsReport(src HandlerSources) *JobsReport {
	if src.Jobs == nil {
		return nil
	}
	return src.Jobs()
}

func clusterReport(src HandlerSources) *ClusterReport {
	if src.Cluster == nil {
		return nil
	}
	return src.Cluster()
}
