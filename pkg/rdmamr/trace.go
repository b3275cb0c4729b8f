package rdmamr

import (
	"context"
	"fmt"

	"rdmamr/internal/obs"
)

// JobTrace is a finished job's record: scheduler dispatch, map
// run/commit, shuffle fetch, merge, and reduce run/commit spans. It has
// two views: Report() is the shuffle profile (JobResult.Profile), and
// ChromeTrace() exports Chrome trace-event JSON, one lane per task slot
// per node, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Produced on JobResult.Trace when the job runs with KeyObsProfile, and
// served at /profile and /trace.json when KeyObsHTTPAddr is set.
type JobTrace = obs.JobTrace

// TraceStats summarizes a validated Chrome trace (event counts per
// phase/category, distinct nodes) — the assertion surface behind
// `rdmamr trace -check` and `make trace-smoke`.
type TraceStats = obs.TraceStats

// ValidateChromeTrace checks raw is well-formed Chrome trace-event JSON
// (parses, and every duration-begin event has a matching end in LIFO
// order per lane) and returns summary stats.
func ValidateChromeTrace(raw []byte) (*TraceStats, error) {
	return obs.ValidateChromeTrace(raw)
}

// TracedTeraSort runs an in-process TeraSort on the OSU-IB RDMA engine
// with the job's record on (KeyObsProfile), validates the output, and
// returns the result; JobResult.Trace carries the record. This is the one-call
// "show me the timeline" entry point behind `rdmamr trace` and
// `make trace-smoke`.
func TracedTeraSort(ctx context.Context, nodes int, rows int64, reduces int) (*JobResult, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("rdmamr: traced terasort needs >= 2 nodes (got %d), or no shuffle crosses the fabric", nodes)
	}
	conf := NewConfig()
	conf.SetBool(KeyRDMAEnabled, true)
	conf.SetBool(KeyObsProfile, true)
	c, err := NewCluster(nodes, conf)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// One file per map slot per node keeps every tracker mapping and
	// shuffling, so the trace shows spans on every node.
	maxFile := rows*100/int64(2*nodes) + 1
	files, err := TeraGen(c, "/trace/in", rows, maxFile, 42)
	if err != nil {
		return nil, err
	}
	job, sum, err := TeraSortJob(c, "traced-terasort", files, "/trace/out", reduces)
	if err != nil {
		return nil, err
	}
	res, err := c.RunJob(ctx, job)
	if err != nil {
		return nil, err
	}
	if err := ValidateMultiset(c, "/trace/out", sum); err != nil {
		return nil, fmt.Errorf("rdmamr: traced terasort output invalid: %w", err)
	}
	if res.Trace == nil {
		return nil, fmt.Errorf("rdmamr: record enabled but no trace produced")
	}
	return res, nil
}
