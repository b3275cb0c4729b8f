package mapred

import (
	"sync"

	"rdmamr/internal/obs"
)

// jobObsRegistry keys per-job records by jobID so concurrent jobs do not
// clobber each other's instrumentation. A nil lookup means the record is
// off for that job — the same nil-is-free discipline every
// instrumentation site already follows.
type jobObsRegistry struct {
	mu     sync.Mutex
	traces map[string]*obs.JobTrace
	order  []string // install order: the last is the newest
}

func newJobObsRegistry() *jobObsRegistry {
	return &jobObsRegistry{traces: make(map[string]*obs.JobTrace)}
}

// install registers a running job's record; jobs without one are never
// installed, so the newest entry is the newest recorded job.
func (r *jobObsRegistry) install(jobID string, t *obs.JobTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces[jobID] = t
	r.order = append(r.order, jobID)
}

// remove drops a finished job's entry.
func (r *jobObsRegistry) remove(jobID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.traces, jobID)
	for i, id := range r.order {
		if id == jobID {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *jobObsRegistry) traceFor(jobID string) *obs.JobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traces[jobID]
}

// latestTrace returns the newest running job's record (the debug
// endpoint's "current job" view), nil when none.
func (r *jobObsRegistry) latestTrace() *obs.JobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.order); n > 0 {
		return r.traces[r.order[n-1]]
	}
	return nil
}
