package mapred

import (
	"context"
	"fmt"
	"sync"

	"rdmamr/internal/obs"
)

// MaxMapRecoveries bounds re-execution attempts per map task: the
// original run plus these make MaxTaskAttempts.
const MaxMapRecoveries = MaxTaskAttempts - 1

// jobRecovery coordinates map re-execution when reduce-side fetchers
// report lost map outputs — the "faster recovery in case of task
// failures" the paper lists as future work (§VI). Concurrent reports for
// the same (map, attempt) share one re-execution; each attempt is placed
// on a different node.
type jobRecovery struct {
	c      *Cluster
	ctx    context.Context
	info   JobInfo
	job    *Job
	splits map[int]*split

	mu      sync.Mutex
	entries map[recoveryKey]*recoveryEntry
}

type recoveryKey struct {
	mapID   int
	attempt int
}

type recoveryEntry struct {
	done chan struct{}
	host string
	err  error
}

func newJobRecovery(ctx context.Context, c *Cluster, info JobInfo, job *Job, splits []*split) *jobRecovery {
	byID := make(map[int]*split, len(splits))
	for _, sp := range splits {
		byID[sp.id] = sp
	}
	return &jobRecovery{
		c: c, ctx: ctx, info: info, job: job,
		splits:  byID,
		entries: make(map[recoveryKey]*recoveryEntry),
	}
}

// Recover re-executes map mapID for the given fetcher-side attempt
// number (1 for the first failure), returning the host now serving the
// regenerated output. Map functions are assumed deterministic (Hadoop's
// standing requirement), so the regenerated output is byte-identical and
// in-flight fetch offsets remain valid.
func (r *jobRecovery) Recover(ctx context.Context, mapID, attempt int) (string, error) {
	if attempt > MaxMapRecoveries {
		return "", fmt.Errorf("mapred: map %d unrecoverable: exhausted %d re-execution attempts",
			mapID, MaxMapRecoveries)
	}
	key := recoveryKey{mapID: mapID, attempt: attempt}
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
			return e.host, e.err
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	e := &recoveryEntry{done: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()
	// Place each attempt on a different node so a sick node does not
	// keep re-hosting the same output.
	r.execute(e, mapID, (mapID+attempt)%len(r.c.trackers), "")
	return e.host, e.err
}

// RecoverAway proactively re-executes mapID somewhere other than avoid —
// the decommission path re-hosting a dead tracker's completed outputs
// before reducers even notice. The re-execution registers under the next
// free fetcher-side attempt number, so a fetcher that fails against the
// dead host and escalates finds this entry and returns immediately with
// the replacement host.
func (r *jobRecovery) RecoverAway(ctx context.Context, mapID int, avoid string) (string, error) {
	r.mu.Lock()
	attempt := 1
	for {
		if _, ok := r.entries[recoveryKey{mapID: mapID, attempt: attempt}]; !ok {
			break
		}
		attempt++
	}
	if attempt > MaxMapRecoveries {
		r.mu.Unlock()
		return "", fmt.Errorf("mapred: map %d unrecoverable: exhausted %d re-execution attempts",
			mapID, MaxMapRecoveries)
	}
	e := &recoveryEntry{done: make(chan struct{})}
	r.entries[recoveryKey{mapID: mapID, attempt: attempt}] = e
	r.mu.Unlock()
	r.execute(e, mapID, (mapID+attempt)%len(r.c.trackers), avoid)
	return e.host, e.err
}

// execute runs one re-execution attempt on a live tracker at or after
// start (wrapping, skipping avoid when possible) and publishes the
// result into e.
func (r *jobRecovery) execute(e *recoveryEntry, mapID, start int, avoid string) {
	defer close(e.done)
	sp, ok := r.splits[mapID]
	if !ok {
		e.err = fmt.Errorf("mapred: recovery for unknown map %d", mapID)
		return
	}
	ti, ok := r.c.liveness.pickUp(start, avoid)
	if !ok {
		e.err = fmt.Errorf("mapred: map %d unrecoverable: no live tracker to re-execute on", mapID)
		return
	}
	tt := r.c.trackers[ti]
	// Recovery re-executions run outside the slot workers, so they get
	// their own trace lane rather than a slot's.
	e.err = r.c.runMapTask(r.ctx, tt, r.info, r.job, sp, obs.RecoverySlot, 0)
	if e.err == nil {
		e.host = tt.Host()
		r.c.server(ti).MapOutputReady(r.info, mapID)
		r.c.reg.Counter("map.tasks.recovered").Add(1)
	}
}
