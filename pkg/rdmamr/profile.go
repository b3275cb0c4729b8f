package rdmamr

import (
	"context"
	"fmt"

	"rdmamr/internal/config"
	"rdmamr/internal/obs"
)

// Report is a finished job's shuffle observability report, the profile
// view of its record (JobTrace.Report): per-host fetch latency
// percentiles, time-to-first-byte per reduce, ring-slot occupancy, the
// fetch spans, and the measured map/shuffle/merge/reduce overlap
// timeline. Produced on JobResult.Profile when the job runs with
// KeyObsProfile, and served live by the debug endpoint when
// KeyObsHTTPAddr is set.
type Report = obs.Report

// Observability configuration keys.
const (
	// KeyObsProfile keeps each job's record, the one source of
	// JobResult.Profile and JobResult.Trace; off by default and nearly
	// free when off (one nil check per instrumented site).
	KeyObsProfile = config.KeyObsProfile
	// KeyObsHTTPAddr, when set to a listen address, serves /metrics,
	// /profile(.json), /trace.json and the cluster views over HTTP for
	// the cluster's lifetime.
	KeyObsHTTPAddr = config.KeyObsHTTPAddr
)

// ProfiledSort runs an in-process Sort benchmark on the OSU-IB RDMA
// engine with shuffle profiling enabled, validates the output, and
// returns the result; JobResult.Profile carries the report. This is the
// one-call "show me the overlap" entry point behind `rdmamr profile`
// and `make profile-smoke`.
func ProfiledSort(ctx context.Context, nodes int, totalBytes int64, reduces int) (*JobResult, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("rdmamr: profiled sort needs >= 2 nodes (got %d), or no shuffle crosses the fabric", nodes)
	}
	conf := NewConfig()
	conf.SetBool(KeyRDMAEnabled, true)
	conf.SetBool(KeyObsProfile, true)
	c, err := NewCluster(nodes, conf)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// One file per map slot per node keeps every tracker shuffling.
	maxFile := totalBytes/int64(2*nodes) + 1
	files, err := RandomWriter(c, "/profile/in", totalBytes, maxFile, 42)
	if err != nil {
		return nil, err
	}
	job, sum, err := SortJob(c, "profiled-sort", files, "/profile/out", reduces)
	if err != nil {
		return nil, err
	}
	res, err := c.RunJob(ctx, job)
	if err != nil {
		return nil, err
	}
	if err := ValidateMultiset(c, "/profile/out", sum); err != nil {
		return nil, fmt.Errorf("rdmamr: profiled sort output invalid: %w", err)
	}
	if res.Profile == nil {
		return nil, fmt.Errorf("rdmamr: profiling enabled but no report produced")
	}
	return res, nil
}
