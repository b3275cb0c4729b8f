package jobtracker

import (
	"sort"
	"sync"
	"time"
)

// minStragglerThreshold floors the speculation threshold so that jobs
// whose attempts complete in microseconds (tiny test inputs, clock
// granularity) do not speculate every in-flight task the instant the
// median rounds to zero.
const minStragglerThreshold = time.Millisecond

// An attempt is a straggler when its elapsed running time exceeds
// stragglerRatioPercent % of the median completed attempt duration, once
// stragglerMinFinished attempts (capped at numTasks-1 so the last task of
// a small job can still speculate) have completed to make the median
// meaningful.
const (
	stragglerRatioPercent = 150
	stragglerMinFinished  = 3
)

// Stragglers tracks attempt durations for one task kind of one job and
// answers "is this running task worth a backup attempt?" — Hadoop's
// speculative-execution heuristic, as a percentile test against the job
// median rather than vanilla Hadoop's progress-rate estimate (our
// attempts do not report fractional progress).
type Stragglers struct {
	mu      sync.Mutex
	total   int
	started map[int]time.Time
	took    []time.Duration // completed attempt durations, unsorted
}

// NewStragglers returns a detector for a job with totalTasks tasks of
// this kind.
func NewStragglers(totalTasks int) *Stragglers {
	return &Stragglers{total: totalTasks, started: make(map[int]time.Time)}
}

// Started records that an original (non-backup) attempt of task id began
// at the given time. A retry overwrites the start — elapsed time is
// measured from the newest original attempt, so a requeued task is not
// instantly condemned for its predecessor's failure.
func (s *Stragglers) Started(id int, at time.Time) {
	s.mu.Lock()
	s.started[id] = at
	s.mu.Unlock()
}

// Finished records a completed attempt of task id, contributing its
// duration to the job median.
func (s *Stragglers) Finished(id int, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, ok := s.started[id]
	if !ok {
		return
	}
	delete(s.started, id)
	if d := at.Sub(start); d >= 0 {
		s.took = append(s.took, d)
	}
}

// Straggler reports whether task id's running attempt has outlived the
// speculation threshold: ratio × median of completed durations, once
// enough attempts have finished for the median to mean something.
func (s *Stragglers) Straggler(id int, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, ok := s.started[id]
	if !ok {
		return false
	}
	need := stragglerMinFinished
	if limit := s.total - 1; limit >= 1 && need > limit {
		need = limit
	}
	if len(s.took) < need {
		return false
	}
	sorted := append([]time.Duration(nil), s.took...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	threshold := time.Duration(int64(median) * stragglerRatioPercent / 100)
	if threshold < minStragglerThreshold {
		threshold = minStragglerThreshold
	}
	return now.Sub(start) > threshold
}
