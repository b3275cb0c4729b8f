package mapred

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/mapred/jobtracker"
	"rdmamr/internal/obs"
)

// specPollInterval is how often an idle slot worker re-probes for work
// while any running job has speculation enabled: straggler eligibility
// is time-driven (an attempt BECOMES a straggler by outliving the
// threshold), so a purely event-driven parked worker would never see it.
const specPollInterval = 10 * time.Millisecond

// jobTracker multiplexes N admitted jobs over the cluster's shared
// TaskTracker slots: one fixed pool of slot workers (trackers ×
// mapred.tasktracker.map.tasks.maximum plus trackers ×
// mapred.tasktracker.reduce.tasks.maximum, sized from the cluster
// configuration) pulls attempts through a per-kind deficit-weighted
// round-robin arbiter, so every running job gets its fair share of each
// slot kind and a data-local placement is preferred across ALL jobs
// before any job settles for a remote split. Admission beyond
// mapred.jobtracker.max.running queues FIFO. Straggler detection (150 %
// of the job's median completed attempt, after 3 completions) gates
// speculative map execution; per-job cache isolation is wired separately
// through mapred.jobtracker.cache.job.quota.bytes.
type jobTracker struct {
	c            *Cluster
	adm          *jobtracker.Admission
	mapSched     *jobtracker.DWRR
	reduceSched  *jobtracker.DWRR
	mapSlots     int // per tracker
	reduceSlots  int // per tracker
	stragglerCfg jobtracker.StragglerConfig

	mu   sync.Mutex
	jobs map[string]*runningJob
	wake chan struct{} // closed+replaced whenever new work may appear
	// busyMaps/busyReduces count running attempts per host (all jobs) —
	// the dispatcher's free-slot view for per-host balance.
	busyMaps    map[string]int
	busyReduces map[string]int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newJobTracker(c *Cluster) *jobTracker {
	conf := c.conf
	return &jobTracker{
		c:           c,
		adm:         jobtracker.NewAdmission(int(conf.Int(config.KeyJTMaxRunning))),
		mapSched:    jobtracker.NewDWRR(),
		reduceSched: jobtracker.NewDWRR(),
		mapSlots:    int(conf.Int(config.KeyMapSlots)),
		reduceSlots: int(conf.Int(config.KeyReduceSlots)),
		// An attempt past 1.5× the job's median completed attempt is a
		// straggler, once three attempts have completed.
		stragglerCfg: jobtracker.StragglerConfig{RatioPercent: 150, MinFinished: 3},
		jobs:         make(map[string]*runningJob),
		wake:         make(chan struct{}),
		busyMaps:     make(map[string]int),
		busyReduces:  make(map[string]int),
		stop:         make(chan struct{}),
	}
}

// start launches the shared slot workers. The pool is cluster-lifetime:
// workers park between jobs rather than being respawned per job, which
// is what lets attempts from different jobs interleave on one node.
func (jt *jobTracker) start() {
	for ti, tt := range jt.c.trackers {
		for s := 0; s < jt.mapSlots; s++ {
			jt.wg.Add(1)
			go jt.worker(ti, tt, 'm', s)
		}
		for s := 0; s < jt.reduceSlots; s++ {
			jt.wg.Add(1)
			go jt.worker(ti, tt, 'r', s)
		}
	}
}

// shutdown asks every worker to exit at its next dispatch boundary.
// In-flight attempts are not waited for (their jobs fail through the
// closing shuffle servers, exactly as before this scheduler existed).
func (jt *jobTracker) shutdown() {
	jt.stopOnce.Do(func() { close(jt.stop) })
}

// kick wakes every parked worker — called whenever dispatchable work may
// have appeared (admission, completion, requeue, speculation clearance).
func (jt *jobTracker) kick() {
	jt.mu.Lock()
	close(jt.wake)
	jt.wake = make(chan struct{})
	jt.mu.Unlock()
}

func (jt *jobTracker) add(rj *runningJob) {
	jt.mu.Lock()
	jt.jobs[rj.info.ID] = rj
	jt.mapSched.Add(rj.info.ID, 1)
	jt.reduceSched.Add(rj.info.ID, 1)
	jt.mu.Unlock()
	jt.kick()
}

// forEachRunning calls fn on every currently running job, outside jt.mu.
func (jt *jobTracker) forEachRunning(fn func(*runningJob)) {
	jt.mu.Lock()
	jobs := make([]*runningJob, 0, len(jt.jobs))
	for _, rj := range jt.jobs {
		jobs = append(jobs, rj)
	}
	jt.mu.Unlock()
	for _, rj := range jobs {
		fn(rj)
	}
}

// remove deregisters a finishing job. Dispatch holds jt.mu across
// take+wg.Add, so after remove returns no NEW attempt of this job can
// start; rj.wg.Wait() then drains the in-flight ones.
func (jt *jobTracker) remove(jobID string) {
	jt.mu.Lock()
	delete(jt.jobs, jobID)
	jt.mapSched.Remove(jobID)
	jt.reduceSched.Remove(jobID)
	jt.mu.Unlock()
}

// worker is one shared slot of the given kind on tracker ti. It pulls
// attempts from whichever job the fair-share arbiter favors, parks on a
// down tracker until revive, and parks on wake (with a speculation
// re-probe timeout when relevant) when no job has work for it.
func (jt *jobTracker) worker(ti int, tt *TaskTracker, kind byte, slot int) {
	defer jt.wg.Done()
	c := jt.c
	for {
		select {
		case <-jt.stop:
			return
		default:
		}
		if up, changed := c.liveness.status(ti); !up {
			select {
			case <-changed:
			case <-jt.stop:
				return
			}
			continue
		}
		d := jt.dispatch(kind, tt.Host())
		if d.ok {
			// Wake the other parked workers before running: more work may
			// remain, and our taking a slot can change the balance
			// condition that parked them.
			jt.kick()
			if kind == 'm' {
				d.rj.runMapAttempt(ti, tt, slot, d.id, d.attempt, d.backup)
			} else {
				d.rj.runReduceAttempt(ti, tt, slot, d.id, d.attempt, d.backup)
			}
			continue
		}
		// d.wake was snapshotted inside dispatch's critical section, so a
		// kick that fires between the failed probe and this park still
		// wakes us — no lost wakeups.
		if d.poll > 0 {
			t := time.NewTimer(d.poll)
			select {
			case <-d.wake:
			case <-t.C:
			case <-jt.stop:
				t.Stop()
				return
			}
			t.Stop()
		} else {
			select {
			case <-d.wake:
			case <-jt.stop:
				return
			}
		}
	}
}

// pollLocked returns a park timeout when any running job of this kind
// may yet speculate (eligibility is time-driven), else 0 for pure
// event-driven parking.
func (jt *jobTracker) pollLocked(kind byte) time.Duration {
	for _, rj := range jt.jobs {
		q := rj.queue(kind)
		if q.speculate && !q.finished() {
			return specPollInterval
		}
	}
	return 0
}

// dispatchResult is one probe's outcome: either an attempt to run (ok)
// or the park parameters (wake snapshot + optional speculation re-probe
// timeout), taken under the same critical section as the failed probe.
type dispatchResult struct {
	rj          *runningJob
	id, attempt int
	backup, ok  bool
	wake        <-chan struct{}
	poll        time.Duration
}

// dispatch picks the next attempt for an idle slot: jobs are probed in
// fair-share order (most unspent DWRR credit first), first for
// data-local work across every job, then for anything. Within a job,
// per-host balance applies: a host already holding its share of the
// job's tasks (ceil(tasks/liveHosts)) leaves pending work for a live
// host with a free slot that is still under share — so a hot worker
// looping dispatch→run→dispatch cannot drain a whole job onto one node
// while other nodes' slots sit idle. The whole scan+take+wg.Add runs
// under jt.mu so a finishing job's remove() is a clean barrier: after
// it, no new attempt of that job can be handed out.
func (jt *jobTracker) dispatch(kind byte, host string) dispatchResult {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	sched := jt.mapSched
	if kind == 'r' {
		sched = jt.reduceSched
	}
	order := sched.Candidates(func(jid string) bool {
		j := jt.jobs[jid]
		return j != nil && j.ctx.Err() == nil && j.queue(kind).hasDispatchable()
	})
	live := jt.liveCountLocked()
	passes := []bool{true, false}
	if kind == 'r' {
		passes = []bool{false} // reduces carry no locality hints
	}
	for _, localOnly := range passes {
		for _, jid := range order {
			j := jt.jobs[jid]
			if j == nil || j.ctx.Err() != nil {
				continue
			}
			quota := (j.totalTasks(kind) + live - 1) / live
			if quota < 1 {
				quota = 1
			}
			pendingOK := j.assignedFor(kind)[host] < quota ||
				!jt.idleShareElsewhereLocked(j, kind, host, quota)
			tid, att, bk, took, _ := j.queue(kind).take(host, localOnly, pendingOK)
			if took {
				sched.Charge(jid, 1)
				j.wg.Add(1)
				jt.busyFor(kind)[host]++
				if !bk {
					j.assignedFor(kind)[host]++
				}
				return dispatchResult{rj: j, id: tid, attempt: att, backup: bk, ok: true}
			}
		}
	}
	return dispatchResult{wake: jt.wake, poll: jt.pollLocked(kind)}
}

func (jt *jobTracker) busyFor(kind byte) map[string]int {
	if kind == 'm' {
		return jt.busyMaps
	}
	return jt.busyReduces
}

func (jt *jobTracker) slotsFor(kind byte) int {
	if kind == 'm' {
		return jt.mapSlots
	}
	return jt.reduceSlots
}

func (jt *jobTracker) liveCountLocked() int {
	n := 0
	for i := range jt.c.trackers {
		if jt.c.liveness.isUp(i) {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// idleShareElsewhereLocked reports whether some OTHER live host has a
// free slot of this kind and is still under the job's per-host share —
// the condition under which an over-share host leaves pending work on
// the queue. Without such a host, balance yields to utilization: better
// an imbalanced assignment than an idle slot next to pending work.
func (jt *jobTracker) idleShareElsewhereLocked(j *runningJob, kind byte, host string, quota int) bool {
	slots := jt.slotsFor(kind)
	busy := jt.busyFor(kind)
	assigned := j.assignedFor(kind)
	for i, tt := range jt.c.trackers {
		h := tt.Host()
		if h == host || !jt.c.liveness.isUp(i) {
			continue
		}
		if busy[h] < slots && assigned[h] < quota {
			return true
		}
	}
	return false
}

// endAttempt releases the dispatcher's busy-slot accounting for a
// finished attempt (success, failure, or cancellation alike).
func (jt *jobTracker) endAttempt(kind byte, host string) {
	jt.mu.Lock()
	jt.busyFor(kind)[host]--
	jt.mu.Unlock()
}

// unassign returns a requeued task's share back from a host — it will
// be re-assigned wherever the task lands next.
func (jt *jobTracker) unassign(j *runningJob, kind byte, host string) {
	jt.mu.Lock()
	j.assignedFor(kind)[host]--
	jt.mu.Unlock()
}

// attemptKey names one in-flight attempt for loser cancellation.
type attemptKey struct {
	kind    byte
	task    int
	attempt int
}

// runningJob is one admitted job's scheduling state: its attempt queues,
// straggler detector, map-completion board, recovery hooks, and the
// in-flight attempt set the first finisher cancels its losers through.
type runningJob struct {
	c      *Cluster
	info   JobInfo
	job    *Job
	splits map[int]*split

	ctx    context.Context
	cancel context.CancelFunc

	mq, rq   *attemptQueue
	mapDet   *jobtracker.Stragglers // nil unless speculative maps
	board    *eventBoard
	losses   *TrackerLossFeed
	recovery *jobRecovery
	unwatch  func()

	// wg counts in-flight attempts; incremented under jt.mu at dispatch.
	wg sync.WaitGroup

	errOnce  sync.Once
	firstErr error

	amu      sync.Mutex
	inflight map[attemptKey]context.CancelFunc

	// mapsRunning/reducesRunning are the job's held-slot gauges, the
	// numbers /jobs.json reports as slot shares.
	mapsRunning    atomic.Int64
	reducesRunning atomic.Int64

	// mapAssigned/reduceAssigned count tasks assigned per host (guarded
	// by jt.mu) — the dispatcher's per-host balance state. A completed
	// task stays counted; a requeued one is returned via unassign.
	mapAssigned    map[string]int
	reduceAssigned map[string]int

	prof *obs.JobProfile
	tr   *obs.JobTrace
}

func (rj *runningJob) queue(kind byte) *attemptQueue {
	if kind == 'm' {
		return rj.mq
	}
	return rj.rq
}

func (rj *runningJob) assignedFor(kind byte) map[string]int {
	if kind == 'm' {
		return rj.mapAssigned
	}
	return rj.reduceAssigned
}

func (rj *runningJob) totalTasks(kind byte) int {
	if kind == 'm' {
		return rj.info.NumMaps
	}
	return rj.info.NumReduces
}

func (rj *runningJob) fail(err error) {
	if err == nil {
		return
	}
	rj.errOnce.Do(func() {
		rj.firstErr = err
		rj.cancel()
	})
}

// beginAttempt registers an in-flight attempt and returns its context
// (cancelled when the job ends, the node dies — via the attempt
// registry layered on top — or a sibling attempt wins the task) plus
// the deregistration func.
func (rj *runningJob) beginAttempt(kind byte, task, attempt int) (context.Context, func()) {
	actx, acancel := context.WithCancel(rj.ctx)
	key := attemptKey{kind: kind, task: task, attempt: attempt}
	rj.amu.Lock()
	rj.inflight[key] = acancel
	rj.amu.Unlock()
	return actx, func() {
		rj.amu.Lock()
		delete(rj.inflight, key)
		rj.amu.Unlock()
		acancel()
	}
}

// cancelLosers cancels every other in-flight attempt of the task: the
// first finisher committed, so the losers' remaining work is pure waste.
func (rj *runningJob) cancelLosers(kind byte, task, attempt int) {
	rj.amu.Lock()
	for k, cancel := range rj.inflight {
		if k.kind == kind && k.task == task && k.attempt != attempt {
			cancel()
		}
	}
	rj.amu.Unlock()
}

// runMapAttempt executes one map attempt on tt and routes its outcome:
// first-finisher-wins completion (losers cancelled, late duplicates
// discarded), budget-free requeue on node death, budgeted retry on real
// failure, fatal error on budget exhaustion.
func (rj *runningJob) runMapAttempt(ti int, tt *TaskTracker, slot, id, attempt int, backup bool) {
	defer rj.wg.Done()
	defer rj.c.jt.endAttempt('m', tt.Host())
	c := rj.c
	info := rj.info
	task := fmt.Sprintf("m%d", id)
	if backup {
		c.counters.Add("map.tasks.speculative", 1)
		c.counters.Add("mapred.map.task.attempts.speculated", 1)
		c.events.Append(obs.Event{Type: obs.EvAttemptSpeculated,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: "elapsed past straggler threshold"})
		c.events.Append(obs.Event{Type: obs.EvSpeculationLaunched,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: "straggler backup"})
	} else if rj.mapDet != nil {
		rj.mapDet.Started(id, time.Now())
	}
	tr := tt.TraceFor(info.ID)
	var lane string
	var dispatched time.Time
	if tr != nil {
		lane = fmt.Sprintf("map slot %d", slot)
		dispatched = time.Now()
	}
	rj.mapsRunning.Add(1)
	defer rj.mapsRunning.Add(-1)
	actx, done := rj.beginAttempt('m', id, attempt)
	actx, h := c.attempts.begin(actx, ti)
	err := c.runMapTask(actx, tt, info, rj.job, rj.splits[id], lane, attempt)
	killed := h.finish()
	done()
	if tr != nil {
		tr.Span(tt.Host(), lane, obs.CatSched,
			fmt.Sprintf("dispatch m%d@%d", id, attempt), dispatched, time.Now(),
			map[string]string{"corr": fmt.Sprintf("%s/m%d@%d", info.ID, id, attempt)})
	}
	if err == nil && killed {
		// Ran to completion on a node the scheduler killed mid-attempt:
		// its server is gone, so the output cannot be served. Discard
		// and reschedule.
		err = fmt.Errorf("mapred: map %d attempt %d: %s died mid-attempt", id, attempt, tt.Host())
	}
	if err == nil {
		if !rj.mq.complete(id) {
			c.counters.Add("map.tasks.duplicate.discarded", 1)
			c.events.Append(obs.Event{Type: obs.EvSpeculationLost,
				Job: info.ID, Task: task, Host: tt.Host(), Cause: "another attempt finished first"})
			return
		}
		if rj.mapDet != nil && !backup {
			rj.mapDet.Finished(id, time.Now())
		}
		rj.cancelLosers('m', id, attempt)
		if backup {
			c.events.Append(obs.Event{Type: obs.EvSpeculationWon,
				Job: info.ID, Task: task, Host: tt.Host()})
		}
		c.server(ti).MapOutputReady(info, id)
		rj.board.announce(MapEvent{MapID: id, Host: tt.Host()})
		c.jt.kick()
		return
	}
	if rj.mq.isDone(id) {
		// A cancelled loser: the task completed elsewhere while we ran.
		// Not a failure — no budget, no retry.
		return
	}
	if rj.ctx.Err() != nil && !killed {
		return // job is aborting, not this attempt's fault
	}
	c.counters.Add("map.task.attempts.failed", 1)
	if killed {
		if rj.mq.requeueKilled(id, backup) {
			c.jt.unassign(rj, 'm', tt.Host())
			c.counters.Add("map.task.attempts.retried", 1)
			c.events.Append(obs.Event{Type: obs.EvAttemptRetried,
				Job: info.ID, Task: task, Host: tt.Host(), Cause: "node death"})
		}
		c.jt.kick()
		return
	}
	if backup {
		// A failed backup is harmless; the original attempt is still
		// running.
		return
	}
	requeued, fatal := rj.mq.fail(id)
	if requeued {
		c.jt.unassign(rj, 'm', tt.Host())
		c.counters.Add("map.task.attempts.retried", 1)
		c.events.Append(obs.Event{Type: obs.EvAttemptRetried,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: err.Error()})
		c.jt.kick()
	}
	if fatal {
		c.events.Append(obs.Event{Type: obs.EvAttemptExhausted,
			Job: info.ID, Task: task, Host: tt.Host(),
			Cause: fmt.Sprintf("failed after %d attempts: %v", rj.mq.attempts(id), err)})
		rj.fail(fmt.Errorf("map %d on %s failed after %d attempts: %w",
			id, tt.Host(), rj.mq.attempts(id), err))
	}
}

// runReduceAttempt executes one reduce attempt; duplicate attempts are
// arbitrated by the output-commit rename (first committer wins) and the
// winner cancels in-flight losers.
func (rj *runningJob) runReduceAttempt(ti int, tt *TaskTracker, slot, id, attempt int, backup bool) {
	defer rj.wg.Done()
	defer rj.c.jt.endAttempt('r', tt.Host())
	c := rj.c
	info := rj.info
	task := fmt.Sprintf("r%d", id)
	if backup {
		c.counters.Add("reduce.tasks.speculative", 1)
		c.counters.Add("mapred.reduce.task.attempts.speculated", 1)
		c.events.Append(obs.Event{Type: obs.EvAttemptSpeculated,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: "idle slot backup"})
		c.events.Append(obs.Event{Type: obs.EvSpeculationLaunched,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: "straggler backup"})
	}
	tr := tt.TraceFor(info.ID)
	var lane string
	var dispatched time.Time
	if tr != nil {
		lane = fmt.Sprintf("reduce slot %d", slot)
		dispatched = time.Now()
	}
	rj.reducesRunning.Add(1)
	defer rj.reducesRunning.Add(-1)
	events, unsubscribe := rj.board.subscribe()
	actx, done := rj.beginAttempt('r', id, attempt)
	actx, h := c.attempts.begin(actx, ti)
	committed, err := c.runReduceTask(actx, tt, info, rj.job, id, attempt, events, rj.recovery, rj.losses, lane)
	killed := h.finish()
	done()
	unsubscribe()
	if tr != nil {
		tr.Span(tt.Host(), lane, obs.CatSched,
			fmt.Sprintf("dispatch r%d@%d", id, attempt), dispatched, time.Now(),
			map[string]string{"corr": fmt.Sprintf("%s/r%d@%d", info.ID, id, attempt)})
	}
	if err == nil {
		if committed {
			// Unlike maps, in-flight duplicate attempts are NOT cancelled:
			// the output-commit rename is the arbiter, and the loser's
			// rename failing cleanly is the legacy (and test-pinned)
			// duplicate-discard path.
			rj.rq.complete(id)
			if backup {
				c.events.Append(obs.Event{Type: obs.EvSpeculationWon,
					Job: info.ID, Task: task, Host: tt.Host()})
			}
		} else {
			// Another attempt committed first; ours was discarded by
			// the rename arbiter.
			rj.rq.complete(id)
			c.counters.Add("reduce.tasks.duplicate.discarded", 1)
			c.events.Append(obs.Event{Type: obs.EvSpeculationLost,
				Job: info.ID, Task: task, Host: tt.Host(), Cause: "another attempt committed first"})
		}
		c.jt.kick()
		return
	}
	if rj.rq.isDone(id) {
		return // cancelled loser; the task committed elsewhere
	}
	if rj.ctx.Err() != nil && !killed {
		return
	}
	c.counters.Add("reduce.task.attempts.failed", 1)
	if killed {
		if rj.rq.requeueKilled(id, backup) {
			c.jt.unassign(rj, 'r', tt.Host())
			c.counters.Add("reduce.task.attempts.retried", 1)
			c.events.Append(obs.Event{Type: obs.EvAttemptRetried,
				Job: info.ID, Task: task, Host: tt.Host(), Cause: "node death"})
		}
		c.jt.kick()
		return
	}
	if backup {
		return
	}
	requeued, fatal := rj.rq.fail(id)
	if requeued {
		c.jt.unassign(rj, 'r', tt.Host())
		c.counters.Add("reduce.task.attempts.retried", 1)
		c.events.Append(obs.Event{Type: obs.EvAttemptRetried,
			Job: info.ID, Task: task, Host: tt.Host(), Cause: err.Error()})
		c.jt.kick()
	}
	if fatal {
		c.events.Append(obs.Event{Type: obs.EvAttemptExhausted,
			Job: info.ID, Task: task, Host: tt.Host(),
			Cause: fmt.Sprintf("failed after %d attempts: %v", rj.rq.attempts(id), err)})
		rj.fail(fmt.Errorf("reduce %d on %s failed after %d attempts: %w",
			id, tt.Host(), rj.rq.attempts(id), err))
	}
}

// JobHandle tracks one submitted job. Done closes when the job has
// fully finished — including output scrubbing on failure — so a waiter
// never observes a half-cleaned cluster.
type JobHandle struct {
	ID string

	c    *Cluster
	done chan struct{}
	res  *JobResult
	err  error
}

// Done returns a channel closed when the job has finished (either way).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its result, or returns
// early with ctx's error (the job keeps running; cancel the context
// passed to Submit to abort it).
func (h *JobHandle) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// wait blocks unconditionally — RunJob's semantics: when it returns,
// cleanup has happened.
func (h *JobHandle) wait() (*JobResult, error) {
	<-h.done
	return h.res, h.err
}

// Submit validates and registers a job, reserves its output directory,
// plans its splits, and hands it to the JobTracker: the job queues
// behind mapred.jobtracker.max.running running jobs, then competes for
// shared slots under fair-share scheduling. The returned handle reports
// completion; RunJob is Submit+wait.
func (c *Cluster) Submit(ctx context.Context, spec *Job) (*JobHandle, error) {
	job, err := spec.withDefaults(c.conf)
	if err != nil {
		return nil, err
	}
	if err := job.Conf.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("mapred: cluster closed")
	}
	if c.jobIDs[job.Name] {
		c.mu.Unlock()
		return nil, fmt.Errorf("mapred: job name %q already used", job.Name)
	}
	if owner, taken := c.outputs[job.Output]; taken {
		c.mu.Unlock()
		return nil, fmt.Errorf("mapred: output directory %s already reserved by job %s", job.Output, owner)
	}
	// The emptiness check runs under the same lock that grants the
	// reservation, closing the old submit/submit TOCTOU: at most one
	// live job owns an output directory, and it was empty when granted.
	if existing := c.fs.List(job.Output + "/"); len(existing) > 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("mapred: output directory %s not empty", job.Output)
	}
	c.jobIDs[job.Name] = true
	c.jobSeq++
	jobID := fmt.Sprintf("job_%04d_%s", c.jobSeq, job.Name)
	c.outputs[job.Output] = jobID
	c.mu.Unlock()

	splits, err := c.planSplits(job)
	if err != nil {
		c.releaseOutput(job.Output, jobID)
		return nil, err
	}
	numReduces := job.NumReduces
	if numReduces == 0 {
		numReduces = len(c.trackers) * int(job.Conf.Int(config.KeyReduceSlots))
	}
	info := JobInfo{
		ID: jobID, Conf: job.Conf, Comparator: job.Comparator,
		NumMaps: len(splits), NumReduces: numReduces,
	}
	h := &JobHandle{ID: jobID, c: c, done: make(chan struct{})}
	c.mu.Lock()
	c.jobStatus[jobID] = &jobStatus{
		id: jobID, name: job.Name, state: obs.JobStateQueued,
		submitted: time.Now(), maps: len(splits), reduces: numReduces,
	}
	c.jobOrder = append(c.jobOrder, jobID)
	c.mu.Unlock()
	go c.drive(ctx, h, job, info, splits)
	return h, nil
}

func (c *Cluster) releaseOutput(output, jobID string) {
	c.mu.Lock()
	if c.outputs[output] == jobID {
		delete(c.outputs, output)
	}
	c.mu.Unlock()
}

// drive owns one job's lifecycle: admission, queue construction,
// fair-share execution, and finalization (result assembly or scrub).
func (c *Cluster) drive(ctx context.Context, h *JobHandle, job *Job, info JobInfo, splits []*split) {
	jt := c.jt
	admit, queued := jt.adm.Submit(info.ID)
	if queued {
		running, waiting := jt.adm.Stats()
		c.counters.Add("mapred.jobtracker.jobs.queued", 1)
		c.events.Append(obs.Event{Type: obs.EvJobQueued, Job: info.ID,
			Cause: fmt.Sprintf("%d jobs running (max %d), %d queued", running, jt.adm.Max(), waiting)})
		select {
		case <-admit:
		case <-ctx.Done():
			if jt.adm.Cancel(info.ID) {
				c.finishJob(h, job, info, nil,
					fmt.Errorf("mapred: job %s cancelled while queued: %w", info.ID, ctx.Err()))
				return
			}
			<-admit // admitted while cancelling: run the normal (fast-failing) path
		case <-jt.stop:
			if jt.adm.Cancel(info.ID) {
				c.finishJob(h, job, info, nil, errors.New("mapred: cluster closed"))
				return
			}
			<-admit
		}
	}
	c.counters.Add("mapred.jobtracker.jobs.admitted", 1)
	c.events.Append(obs.Event{Type: obs.EvJobAdmitted, Job: info.ID})

	// Install the job's profile and trace under its OWN key — concurrent
	// jobs never clobber each other's instrumentation. Tracing needs the
	// profile's fetch spans, so enabling the trace forces a profile even
	// when profiling itself is off; the report is then not attached to
	// the result.
	profileOn := job.Conf.Bool(config.KeyObsProfile)
	traceOn := job.Conf.Bool(config.KeyObsTrace)
	var prof *obs.JobProfile
	if profileOn || traceOn {
		prof = obs.NewJobProfile(info.ID)
	}
	var tr *obs.JobTrace
	if traceOn {
		tr = obs.NewJobTrace(info.ID)
	}
	c.jobObs.install(info.ID, prof, tr)

	rj := &runningJob{
		c: c, info: info, job: job,
		splits:         make(map[int]*split, len(splits)),
		inflight:       make(map[attemptKey]context.CancelFunc),
		mapAssigned:    make(map[string]int),
		reduceAssigned: make(map[string]int),
		prof:           prof, tr: tr,
	}
	rj.ctx, rj.cancel = context.WithCancel(ctx)
	mapIDs := make([]int, 0, len(splits))
	hostHints := make(map[int][]string, len(splits))
	for _, sp := range splits {
		rj.splits[sp.id] = sp
		mapIDs = append(mapIDs, sp.id)
		hostHints[sp.id] = sp.hosts
	}
	rj.mq = newAttemptQueue(mapIDs, hostHints,
		int(info.Conf.Int(config.KeyMapMaxAttempts)),
		info.Conf.Bool(config.KeySpeculativeMaps))
	if info.Conf.Bool(config.KeySpeculativeMaps) {
		det := jobtracker.NewStragglers(jt.stragglerCfg, len(mapIDs))
		rj.mapDet = det
		rj.mq.setGate(func(id int) bool { return det.Straggler(id, time.Now()) })
	}
	reduceIDs := make([]int, info.NumReduces)
	for r := range reduceIDs {
		reduceIDs[r] = r
	}
	// Reduces keep the legacy eager speculation (no straggler gate): the
	// output-commit rename arbitrates duplicates, and an idle reduce slot
	// late in the job has nothing better to do.
	rj.rq = newAttemptQueue(reduceIDs, nil,
		int(info.Conf.Int(config.KeyReduceMaxAttempts)),
		info.Conf.Bool(config.KeySpeculativeReduces))
	rj.board = newEventBoard(info.NumMaps)
	rj.losses = NewTrackerLossFeed()
	rj.recovery = newJobRecovery(rj.ctx, c, info, job, splits)

	// React to decommissions for the duration of this job: tell
	// in-flight reducers the host is gone (they fast-fail its
	// connections) and re-execute its completed map outputs elsewhere so
	// fetchers that escalate find the replacement already running. The
	// re-executions run outside the attempt WaitGroup — they are bounded
	// by the job ctx and touch only job-scoped state.
	rj.unwatch = c.liveness.watch(func(ti int, host string) {
		rj.losses.Announce(host)
		for _, mapID := range rj.board.servedBy(host) {
			go func(mapID int) {
				if newHost, err := rj.recovery.RecoverAway(rj.ctx, mapID, host); err == nil {
					rj.board.relocate(mapID, newHost)
					c.events.Append(obs.Event{Type: obs.EvOutputRehosted,
						Job: info.ID, Task: fmt.Sprintf("m%d", mapID), Host: newHost,
						Cause: "map output lost with " + host})
				}
			}(mapID)
		}
	})

	before := c.counters.Snapshot()
	phasesBefore := c.phases.Snapshot()
	eventsBefore := c.events.Seq()
	start := time.Now()
	c.markRunning(info.ID, rj)
	jt.add(rj)

	success := false
	select {
	case <-rj.rq.doneCh: // every reduce committed: the job is done
		success = true
	case <-rj.ctx.Done(): // failed (rj.fail) or cancelled from outside
	case <-jt.stop:
		rj.fail(errors.New("mapred: cluster closed"))
	}
	jt.remove(info.ID)
	if success {
		// Let in-flight duplicate attempts finish naturally first — the
		// commit arbiters discard them, and their discard counters belong
		// to this job's result delta.
		rj.wg.Wait()
	}
	rj.cancel()
	rj.unwatch()
	rj.board.abort()
	rj.wg.Wait()

	err := rj.firstErr
	if err == nil && !rj.rq.finished() {
		err = rj.ctx.Err()
		if err == nil {
			err = ctx.Err()
		}
	}
	dur := time.Since(start)

	if err != nil {
		c.jobObs.remove(info.ID)
		if tr != nil {
			// A failed job's trace is the one most worth reading.
			c.lastTrace.Store(tr)
		}
		// Attach the scheduler events that fired during the job — the
		// expiry/re-host/retry story behind the failure.
		if evs := c.events.TailSince(eventsBefore, 32); len(evs) > 0 {
			err = fmt.Errorf("%w\nscheduler events during job:\n%s", err, obs.FormatEvents(evs))
		}
		// A failed or cancelled job must not leave partial output: the
		// directory was empty at admission, so everything under it —
		// committed parts from finished reduces, uncommitted attempt
		// temp files, abandoned writer placeholders — is ours to remove.
		for _, p := range c.fs.List(job.Output + "/") {
			_ = c.fs.Delete(p)
		}
		for i, tt := range c.trackers {
			c.server(i).JobComplete(info)
			tt.CleanupJob(info.ID)
		}
		c.counters.Add("mapred.jobtracker.jobs.failed", 1)
		c.events.Append(obs.Event{Type: obs.EvJobFailed, Job: info.ID})
		c.finishJob(h, job, info, nil, err)
		jt.adm.Release()
		jt.kick()
		return
	}

	// Commit-protocol debris: losing duplicate attempts delete their own
	// temp files, but attempts killed mid-write leave reserved names
	// under _temporary; clear the scratch dir before listing the output.
	for _, p := range c.fs.List(job.Output + "/_temporary/") {
		_ = c.fs.Delete(p)
	}
	for i, tt := range c.trackers {
		c.server(i).JobComplete(info)
		tt.CleanupJob(info.ID)
	}
	after := c.counters.Snapshot()
	delta := make(map[string]int64, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			delta[k] = d
		}
	}
	phasesAfter := c.phases.Snapshot()
	phaseDelta := make(map[string]time.Duration, len(phasesAfter))
	for k, v := range phasesAfter {
		if d := v - phasesBefore[k]; d != 0 {
			phaseDelta[k] = d
		}
	}
	res := &JobResult{
		JobID: info.ID, Duration: dur,
		NumMaps: info.NumMaps, NumReduces: info.NumReduces,
		OutputFiles: c.fs.List(job.Output + "/"),
		Counters:    delta,
		Phases:      phaseDelta,
	}
	if prof != nil && profileOn {
		rep := prof.Report()
		res.Profile = rep
		c.lastReport.Store(rep)
	}
	if tr != nil {
		res.Trace = tr
		c.lastTrace.Store(tr)
	}
	c.jobObs.remove(info.ID)
	c.counters.Add("mapred.jobtracker.jobs.completed", 1)
	c.events.Append(obs.Event{Type: obs.EvJobCompleted, Job: info.ID})
	c.finishJob(h, job, info, res, nil)
	jt.adm.Release()
	jt.kick()
}

// markRunning flips a job's /jobs state to running and attaches its
// live scheduling handle.
func (c *Cluster) markRunning(jobID string, rj *runningJob) {
	c.mu.Lock()
	if st := c.jobStatus[jobID]; st != nil {
		st.state = obs.JobStateRunning
		st.started = time.Now()
		st.rj = rj
	}
	c.mu.Unlock()
}

// finishJob records the terminal state, releases the output-directory
// reservation, and unblocks waiters.
func (c *Cluster) finishJob(h *JobHandle, job *Job, info JobInfo, res *JobResult, err error) {
	c.mu.Lock()
	if st := c.jobStatus[info.ID]; st != nil {
		st.finished = time.Now()
		if rj := st.rj; rj != nil {
			st.mapsDone = rj.mq.completedCount()
			st.reducesDone = rj.rq.completedCount()
		}
		st.rj = nil
		if err != nil {
			st.state = obs.JobStateFailed
		} else {
			st.state = obs.JobStateSucceeded
		}
	}
	if c.outputs[job.Output] == info.ID {
		delete(c.outputs, job.Output)
	}
	c.mu.Unlock()
	h.res, h.err = res, err
	close(h.done)
}

// jobStatus is one job's row behind /jobs(.json).
type jobStatus struct {
	id, name          string
	state             string
	submitted         time.Time
	started, finished time.Time
	maps, reduces     int
	mapsDone          int
	reducesDone       int
	rj                *runningJob // nil once finished
}

// JobsReport snapshots the JobTracker's job listing for /jobs(.json):
// admission stats, slot capacity, and every known job with its current
// slot holdings.
func (c *Cluster) JobsReport() *obs.JobsReport {
	running, queued := c.jt.adm.Stats()
	n := len(c.trackers)
	rep := &obs.JobsReport{
		MaxRunning: c.jt.adm.Max(), Running: running, Queued: queued,
		TotalMapSlots:    n * c.jt.mapSlots,
		TotalReduceSlots: n * c.jt.reduceSlots,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.jobOrder {
		st := c.jobStatus[id]
		if st == nil {
			continue
		}
		js := obs.JobSummary{
			ID: st.id, Name: st.name, State: st.state,
			SubmittedAt: st.submitted, StartedAt: st.started, FinishedAt: st.finished,
			Maps: st.maps, Reduces: st.reduces,
			MapsDone: st.mapsDone, ReducesDone: st.reducesDone,
		}
		if rj := st.rj; rj != nil {
			js.MapsDone = rj.mq.completedCount()
			js.ReducesDone = rj.rq.completedCount()
			js.MapSlots = int(rj.mapsRunning.Load())
			js.ReduceSlots = int(rj.reducesRunning.Load())
			if rep.TotalMapSlots > 0 {
				js.MapShare = float64(js.MapSlots) / float64(rep.TotalMapSlots)
			}
			if rep.TotalReduceSlots > 0 {
				js.ReduceShare = float64(js.ReduceSlots) / float64(rep.TotalReduceSlots)
			}
		}
		rep.Jobs = append(rep.Jobs, js)
	}
	return rep
}
