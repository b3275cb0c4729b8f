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

// taskKind indexes the per-kind tables: kindSpecs, jobTracker.kinds and
// runningJob.kinds.
type taskKind int

const (
	mapKind taskKind = iota
	reduceKind
	numKinds
)

// The attempt counters of one kind, indexes into kindSpec.counters.
const (
	ctrSpeculative = iota // a backup attempt launched
	ctrSpeculated         // the same, in the mapred.* namespace
	ctrDiscarded          // a finished attempt lost its task to another
	ctrFailed             // an attempt failed or died with its node
	ctrRetried            // a failed attempt's task was requeued
	numCounters
)

// errDiedWithNode fails a map that ran to completion on a node killed
// mid-attempt: its server is gone, so the output cannot be served.
var errDiedWithNode = errors.New("mapred: map's node died mid-attempt")

// kindSpec is what differs between maps and reduces: names, the slot
// key, the counter names and the three hooks of an attempt's lifecycle.
type kindSpec struct {
	letter, noun string       // task-name prefix; error noun
	dispatch     obs.SpanKind // the scheduler's span of an attempt
	slotsKey     string       // slots per tracker
	specCause    string       // why a backup launched (EvAttemptSpeculated)
	lostCause    string       // why a finisher lost its task (EvSpeculationLost)
	counters     [numCounters]string
	// run executes one attempt in ctx; committed is the kind's own
	// commit verdict.
	run func(rj *runningJob, ctx context.Context, tt *TaskTracker, id, attempt, slot int) (committed bool, err error)
	// settle says what an attempt that returned no error means: err when
	// it failed after all, else whether it won its task.
	settle func(rj *runningJob, id int, committed, killed bool) (won bool, err error)
	// win publishes a won task; nil when the common path is all.
	win func(rj *runningJob, ti int, tt *TaskTracker, id, attempt int)
}

var kindSpecs = [numKinds]kindSpec{
	mapKind: {
		letter: "m", noun: "map", dispatch: obs.KindMapDispatch, slotsKey: config.KeyMapSlots,
		specCause: "elapsed past straggler threshold",
		lostCause: "another attempt finished first",
		counters: [numCounters]string{
			ctrSpeculative: "map.tasks.speculative",
			ctrSpeculated:  "mapred.map.task.attempts.speculated",
			ctrDiscarded:   "map.tasks.duplicate.discarded",
			ctrFailed:      "map.task.attempts.failed",
			ctrRetried:     "map.task.attempts.retried",
		},
		run: func(rj *runningJob, ctx context.Context, tt *TaskTracker, id, attempt, slot int) (bool, error) {
			return true, rj.c.runMapTask(ctx, tt, rj.info, rj.job, rj.splits[id], slot, attempt)
		},
		// The first completion wins.
		settle: func(rj *runningJob, id int, _, killed bool) (bool, error) {
			if killed {
				return false, errDiedWithNode
			}
			return rj.kinds[mapKind].q.complete(id), nil
		},
		// The winner cancels its losers and its output goes to the
		// reduces.
		win: func(rj *runningJob, ti int, tt *TaskTracker, id, attempt int) {
			rj.c.attempts.cancelLosers(rj.info.ID, mapKind, id, attempt)
			rj.c.server(ti).MapOutputReady(rj.info, id)
			rj.board.announce(MapEvent{MapID: id, Host: tt.Host()})
		},
	},
	reduceKind: {
		letter: "r", noun: "reduce", dispatch: obs.KindReduceDispatch, slotsKey: config.KeyReduceSlots,
		specCause: "idle slot backup",
		lostCause: "another attempt committed first",
		counters: [numCounters]string{
			ctrSpeculative: "reduce.tasks.speculative",
			ctrSpeculated:  "mapred.reduce.task.attempts.speculated",
			ctrDiscarded:   "reduce.tasks.duplicate.discarded",
			ctrFailed:      "reduce.task.attempts.failed",
			ctrRetried:     "reduce.task.attempts.retried",
		},
		run: func(rj *runningJob, ctx context.Context, tt *TaskTracker, id, attempt, slot int) (bool, error) {
			events, unsubscribe := rj.board.subscribe()
			defer unsubscribe()
			return rj.c.runReduceTask(ctx, tt, rj.info, rj.job, id, attempt, events, rj.recovery, rj.losses, slot)
		},
		// The output-commit rename is the arbiter, so losers are not
		// cancelled: a loser's rename fails cleanly and it is discarded
		// (test-pinned). Either way the task is done.
		settle: func(rj *runningJob, id int, committed, _ bool) (bool, error) {
			rj.kinds[reduceKind].q.complete(id)
			return committed, nil
		},
	},
}

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
	c     *Cluster
	adm   *jobtracker.Admission
	kinds [numKinds]kindPool

	mu   sync.Mutex
	jobs map[string]*runningJob
	wake chan struct{} // closed+replaced whenever new work may appear

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// kindPool is the cluster-wide scheduling state of one task kind.
type kindPool struct {
	sched *jobtracker.DWRR
	slots int // per tracker
	// busy counts running attempts per host (all jobs, guarded by jt.mu)
	// — the dispatcher's free-slot view for per-host balance.
	busy     map[string]int
	counters [numCounters]*obs.Counter
}

func newJobTracker(c *Cluster) *jobTracker {
	jt := &jobTracker{
		c:    c,
		adm:  jobtracker.NewAdmission(int(c.conf.Int(config.KeyJTMaxRunning))),
		jobs: make(map[string]*runningJob),
		wake: make(chan struct{}),
		stop: make(chan struct{}),
	}
	for k := range numKinds {
		p := &jt.kinds[k]
		p.sched = jobtracker.NewDWRR()
		p.slots = int(c.conf.Int(kindSpecs[k].slotsKey))
		p.busy = make(map[string]int)
		for i, name := range kindSpecs[k].counters {
			p.counters[i] = c.reg.Counter(name)
		}
	}
	return jt
}

// start launches the shared slot workers. The pool is cluster-lifetime:
// workers park between jobs rather than being respawned per job, which
// is what lets attempts from different jobs interleave on one node.
func (jt *jobTracker) start() {
	for ti, tt := range jt.c.trackers {
		for k := range numKinds {
			for s := 0; s < jt.kinds[k].slots; s++ {
				jt.wg.Add(1)
				go jt.worker(ti, tt, k, s)
			}
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
	for k := range numKinds {
		jt.kinds[k].sched.Add(rj.info.ID, 1)
	}
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
	for k := range numKinds {
		jt.kinds[k].sched.Remove(jobID)
	}
	jt.mu.Unlock()
}

// worker is one shared slot of the given kind on tracker ti. It pulls
// attempts from whichever job the fair-share arbiter favors, parks on a
// down tracker until revive, and parks on wake (with a speculation
// re-probe timeout when relevant) when no job has work for it.
func (jt *jobTracker) worker(ti int, tt *TaskTracker, k taskKind, slot int) {
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
		d := jt.dispatch(k, tt.Host())
		if d.ok {
			// Wake the other parked workers before running: more work may
			// remain, and our taking a slot can change the balance
			// condition that parked them.
			jt.kick()
			d.rj.runAttempt(k, ti, tt, slot, d.id, d.attempt, d.backup)
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
func (jt *jobTracker) pollLocked(k taskKind) time.Duration {
	for _, rj := range jt.jobs {
		q := rj.kinds[k].q
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
// data-local work across every job, then for anything (reduces carry no
// locality hints, so their first pass finds nothing). Within a job,
// per-host balance applies: a host already holding its share of the
// job's tasks (ceil(tasks/liveHosts)) leaves pending work for a live
// host with a free slot that is still under share — so a hot worker
// looping dispatch→run→dispatch cannot drain a whole job onto one node
// while other nodes' slots sit idle. The whole scan+take+wg.Add runs
// under jt.mu so a finishing job's remove() is a clean barrier: after
// it, no new attempt of that job can be handed out.
func (jt *jobTracker) dispatch(k taskKind, host string) dispatchResult {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	pool := &jt.kinds[k]
	order := pool.sched.Candidates(func(jid string) bool {
		j := jt.jobs[jid]
		return j != nil && j.ctx.Err() == nil && j.kinds[k].q.hasDispatchable()
	})
	live := jt.liveCountLocked()
	for _, localOnly := range []bool{true, false} {
		for _, jid := range order {
			j := jt.jobs[jid]
			if j == nil || j.ctx.Err() != nil {
				continue
			}
			jk := &j.kinds[k]
			quota := max((jk.tasks+live-1)/live, 1)
			pendingOK := jk.assigned[host] < quota ||
				!jt.idleShareElsewhereLocked(j, k, host, quota)
			if id, attempt, backup, ok := jk.q.take(host, localOnly, pendingOK); ok {
				pool.sched.Charge(jid, 1)
				j.wg.Add(1)
				pool.busy[host]++
				if !backup {
					jk.assigned[host]++
				}
				return dispatchResult{rj: j, id: id, attempt: attempt, backup: backup, ok: true}
			}
		}
	}
	return dispatchResult{wake: jt.wake, poll: jt.pollLocked(k)}
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
func (jt *jobTracker) idleShareElsewhereLocked(j *runningJob, k taskKind, host string, quota int) bool {
	pool, assigned := &jt.kinds[k], j.kinds[k].assigned
	for i, tt := range jt.c.trackers {
		h := tt.Host()
		if h == host || !jt.c.liveness.isUp(i) {
			continue
		}
		if pool.busy[h] < pool.slots && assigned[h] < quota {
			return true
		}
	}
	return false
}

// endAttempt releases the dispatcher's busy-slot accounting for a
// finished attempt (success, failure, or cancellation alike).
func (jt *jobTracker) endAttempt(k taskKind, host string) {
	jt.mu.Lock()
	jt.kinds[k].busy[host]--
	jt.mu.Unlock()
}

// unassign returns a requeued task's share back from a host — it will
// be re-assigned wherever the task lands next.
func (jt *jobTracker) unassign(j *runningJob, k taskKind, host string) {
	jt.mu.Lock()
	j.kinds[k].assigned[host]--
	jt.mu.Unlock()
}

// runningJob is one admitted job's scheduling state: its per-kind
// attempt queues, map-completion board and recovery hooks.
type runningJob struct {
	c      *Cluster
	info   JobInfo
	job    *Job
	splits map[int]*split

	ctx    context.Context
	cancel context.CancelFunc

	kinds    [numKinds]jobKind
	board    *eventBoard
	losses   *TrackerLossFeed
	recovery *jobRecovery
	unwatch  func()

	// wg counts in-flight attempts; incremented under jt.mu at dispatch.
	wg sync.WaitGroup

	errOnce  sync.Once
	firstErr error
}

// jobKind is one job's scheduling state for one task kind.
type jobKind struct {
	q     *attemptQueue
	tasks int
	// assigned counts tasks assigned per host (guarded by jt.mu) — the
	// dispatcher's per-host balance state. A completed task stays
	// counted; a requeued one is returned via unassign.
	assigned map[string]int
	// running is the held-slot gauge /jobs.json reports as a slot share.
	running atomic.Int64
	// det is the straggler gate; nil unless the kind's speculation goes
	// through it (speculative maps; reduce speculation is eager).
	det *jobtracker.Stragglers
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

// runAttempt executes one attempt of task id on tt and routes its
// outcome: a win (the kind's win hook), a discarded duplicate, a
// cancelled loser or an aborting job (nothing), death with its node
// (budget-free requeue), a failed backup (nothing: the original still
// runs), a budgeted retry, or exhaustion (the job fails).
func (rj *runningJob) runAttempt(k taskKind, ti int, tt *TaskTracker, slot, id, attempt int, backup bool) {
	defer rj.wg.Done()
	c, info, spec, jk := rj.c, rj.info, &kindSpecs[k], &rj.kinds[k]
	ctr := &c.jt.kinds[k].counters
	host := tt.Host()
	defer c.jt.endAttempt(k, host)
	task := fmt.Sprintf("%s%d", spec.letter, id)
	if backup {
		ctr[ctrSpeculative].Add(1)
		ctr[ctrSpeculated].Add(1)
		c.events.Append(obs.Event{Type: obs.EvAttemptSpeculated,
			Job: info.ID, Task: task, Host: host, Cause: spec.specCause})
		c.events.Append(obs.Event{Type: obs.EvSpeculationLaunched,
			Job: info.ID, Task: task, Host: host, Cause: "straggler backup"})
	} else if jk.det != nil {
		jk.det.Started(id, time.Now())
	}
	tr := tt.TraceFor(info.ID)
	var dispatched time.Time
	if tr != nil {
		dispatched = time.Now()
	}
	jk.running.Add(1)
	defer jk.running.Add(-1)
	ctx, finish := c.attempts.begin(rj.ctx, liveAttempt{job: info.ID, kind: k, task: id, attempt: attempt, tracker: ti})
	committed, err := spec.run(rj, ctx, tt, id, attempt, slot)
	killed := finish()
	if tr != nil {
		tr.Add(taskSpan(spec.dispatch, tt, id, attempt, slot, dispatched))
	}
	var won bool
	if err == nil {
		won, err = spec.settle(rj, id, committed, killed)
	}
	if err == nil {
		if !won {
			ctr[ctrDiscarded].Add(1)
			c.events.Append(obs.Event{Type: obs.EvSpeculationLost,
				Job: info.ID, Task: task, Host: host, Cause: spec.lostCause})
		} else {
			if backup {
				c.events.Append(obs.Event{Type: obs.EvSpeculationWon,
					Job: info.ID, Task: task, Host: host})
			} else if jk.det != nil {
				jk.det.Finished(id, time.Now())
			}
			if spec.win != nil {
				spec.win(rj, ti, tt, id, attempt)
			}
		}
		c.jt.kick()
		return
	}
	q := jk.q
	if q.isDone(id) {
		// A cancelled loser: the task completed elsewhere while we ran.
		// Not a failure — no budget, no retry.
		return
	}
	if rj.ctx.Err() != nil && !killed {
		return // job is aborting, not this attempt's fault
	}
	ctr[ctrFailed].Add(1)
	var requeued, fatal bool
	cause := "node death"
	switch {
	case killed:
		requeued = q.requeueKilled(id, backup)
	case backup:
		return // a failed backup is harmless; the original is still running
	default:
		requeued, fatal = q.fail(id)
		cause = err.Error()
	}
	if requeued {
		c.jt.unassign(rj, k, host)
		ctr[ctrRetried].Add(1)
		c.events.Append(obs.Event{Type: obs.EvAttemptRetried,
			Job: info.ID, Task: task, Host: host, Cause: cause})
	}
	if requeued || killed {
		c.jt.kick()
	}
	if fatal {
		c.events.Append(obs.Event{Type: obs.EvAttemptExhausted,
			Job: info.ID, Task: task, Host: host,
			Cause: fmt.Sprintf("failed after %d attempts: %v", q.attempts(id), err)})
		rj.fail(fmt.Errorf("%s %d on %s failed after %d attempts: %w",
			spec.noun, id, host, q.attempts(id), err))
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
		c.reg.Counter("mapred.jobtracker.jobs.queued").Add(1)
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
	c.reg.Counter("mapred.jobtracker.jobs.admitted").Add(1)
	c.events.Append(obs.Event{Type: obs.EvJobAdmitted, Job: info.ID})

	// Install the job's record under its OWN key — concurrent jobs never
	// clobber each other's instrumentation.
	var tr *obs.JobTrace
	if job.Conf.Bool(config.KeyObsProfile) {
		tr = obs.NewJobTrace(info.ID)
		c.jobObs.install(info.ID, tr)
	}

	rj := &runningJob{
		c: c, info: info, job: job,
		splits: make(map[int]*split, len(splits)),
	}
	rj.ctx, rj.cancel = context.WithCancel(ctx)
	mapIDs := make([]int, 0, len(splits))
	hostHints := make(map[int][]string, len(splits))
	for _, sp := range splits {
		rj.splits[sp.id] = sp
		mapIDs = append(mapIDs, sp.id)
		hostHints[sp.id] = sp.hosts
	}
	rj.kinds[mapKind].q = newAttemptQueue(mapIDs, hostHints,
		MaxTaskAttempts,
		info.Conf.Bool(config.KeySpeculativeMaps))
	if info.Conf.Bool(config.KeySpeculativeMaps) {
		det := jobtracker.NewStragglers(len(mapIDs))
		rj.kinds[mapKind].det = det
		rj.kinds[mapKind].q.setGate(func(id int) bool { return det.Straggler(id, time.Now()) })
	}
	reduceIDs := make([]int, info.NumReduces)
	for r := range reduceIDs {
		reduceIDs[r] = r
	}
	// Reduces keep eager speculation (no straggler gate): the
	// output-commit rename arbitrates duplicates, and an idle reduce slot
	// late in the job has nothing better to do.
	rj.kinds[reduceKind].q = newAttemptQueue(reduceIDs, nil,
		MaxTaskAttempts,
		info.Conf.Bool(config.KeySpeculativeReduces))
	rj.kinds[mapKind].tasks, rj.kinds[reduceKind].tasks = info.NumMaps, info.NumReduces
	for k := range numKinds {
		rj.kinds[k].assigned = make(map[string]int)
	}
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
	eventsBefore := c.events.Seq()
	start := time.Now()
	c.markRunning(info.ID, rj)
	jt.add(rj)

	success := false
	select {
	case <-rj.kinds[reduceKind].q.doneCh: // every reduce committed: the job is done
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
	if err == nil && !rj.kinds[reduceKind].q.finished() {
		err = rj.ctx.Err()
		if err == nil {
			err = ctx.Err()
		}
	}
	dur := time.Since(start)

	// Commit-protocol debris: losing duplicate attempts delete their own
	// temp files, but attempts killed mid-write leave reserved names
	// under _temporary; clear the scratch dir before listing the output.
	scrub := job.Output + "/_temporary/"
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
		scrub = job.Output + "/"
	}
	for _, p := range c.fs.List(scrub) {
		_ = c.fs.Delete(p)
	}
	for i, tt := range c.trackers {
		c.server(i).JobComplete(info)
		tt.CleanupJob(info.ID)
	}
	var res *JobResult
	if err != nil {
		c.reg.Counter("mapred.jobtracker.jobs.failed").Add(1)
		c.events.Append(obs.Event{Type: obs.EvJobFailed, Job: info.ID})
	} else {
		after := c.counters.Snapshot()
		delta := make(map[string]int64, len(after))
		for k, v := range after {
			if d := v - before[k]; d != 0 {
				delta[k] = d
			}
		}
		phaseDelta := make(map[string]time.Duration)
		for _, phase := range []string{"map.task", "reduce.shuffle", "reduce.apply"} {
			if d, ok := delta[phase+".ns"]; ok {
				phaseDelta[phase] = time.Duration(d)
			}
		}
		res = &JobResult{
			JobID: info.ID, Duration: dur,
			NumMaps: info.NumMaps, NumReduces: info.NumReduces,
			OutputFiles: c.fs.List(job.Output + "/"),
			Counters:    delta,
			Phases:      phaseDelta,
		}
		if tr != nil {
			res.Trace, res.Profile = tr, tr.Report()
			c.lastTrace.Store(tr)
		}
		c.jobObs.remove(info.ID)
		c.reg.Counter("mapred.jobtracker.jobs.completed").Add(1)
		c.events.Append(obs.Event{Type: obs.EvJobCompleted, Job: info.ID})
	}
	c.finishJob(h, job, info, res, err)
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
			st.mapsDone = rj.kinds[mapKind].q.completedCount()
			st.reducesDone = rj.kinds[reduceKind].q.completedCount()
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
		TotalMapSlots:    n * c.jt.kinds[mapKind].slots,
		TotalReduceSlots: n * c.jt.kinds[reduceKind].slots,
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
			js.MapsDone = rj.kinds[mapKind].q.completedCount()
			js.ReducesDone = rj.kinds[reduceKind].q.completedCount()
			js.MapSlots = int(rj.kinds[mapKind].running.Load())
			js.ReduceSlots = int(rj.kinds[reduceKind].running.Load())
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
