package mapred

import (
	"context"
	"sync"
)

// MaxTaskAttempts bounds how many times one map or reduce task may be
// attempted (original + retries, Hadoop's mapred.{map,reduce}.max.attempts
// default) before the job fails.
const MaxTaskAttempts = 4

// attemptQueue schedules attempts of one task kind (the map set or the
// reduce set) across slot workers. It generalizes the old splitQueue:
// locality-preferred dispatch, straggler speculation (one backup per
// task, first finisher wins), and — new — a per-task attempt budget
// (MaxTaskAttempts) with requeue-on-failure, plus
// budget-free requeue when an attempt dies with its node rather than on
// its own. Attempt numbers are unique per task, giving retries and
// backups distinct temp output paths for the commit protocol.
type attemptQueue struct {
	mu        sync.Mutex
	pending   []int
	hosts     map[int][]string // locality hints; nil for reduces
	started   map[int]int      // attempts handed out (numbers 1..n)
	failed    map[int]int      // budget-consuming failures
	running   map[int]bool     // a non-backup attempt is in flight
	done      map[int]bool
	backed    map[int]bool
	remaining int
	budget    int // max attempts per task (>=1)
	speculate bool
	// gate, when non-nil, is consulted before a backup attempt is handed
	// out: speculation launches only for tasks the straggler detector
	// confirms. A nil gate keeps the legacy eager behaviour (any running
	// un-backed task may be speculated the moment a slot goes idle).
	gate func(id int) bool

	doneCh   chan struct{} // closed when every task completed
	doneOnce sync.Once
}

func newAttemptQueue(ids []int, hosts map[int][]string, budget int, speculate bool) *attemptQueue {
	if budget < 1 {
		budget = 1
	}
	q := &attemptQueue{
		pending:   append([]int(nil), ids...),
		hosts:     hosts,
		started:   make(map[int]int),
		failed:    make(map[int]int),
		running:   make(map[int]bool),
		done:      make(map[int]bool),
		backed:    make(map[int]bool),
		remaining: len(ids),
		budget:    budget,
		speculate: speculate,
		doneCh:    make(chan struct{}),
	}
	if q.remaining == 0 {
		close(q.doneCh)
	}
	return q
}

// setGate installs the speculation gate (see the field doc). Must be
// called before workers start taking from the queue.
func (q *attemptQueue) setGate(gate func(id int) bool) {
	q.mu.Lock()
	q.gate = gate
	q.mu.Unlock()
}

// take hands out the next attempt: a pending task with a replica on host
// first (data-local), then — unless localOnly — any pending task, then,
// with speculation, a backup of a running straggler. ok is false when
// nothing is available. localOnly is the fair-share dispatcher's
// first pass: it probes every job for data-local work before settling
// for a remote split. pendingOK=false skips the pending picks entirely —
// the dispatcher's per-host balance says this host already holds its
// share of the job's tasks — while still allowing a speculative backup
// (a backup MUST be able to land on an already-loaded host, or a
// straggler could pin its job forever).
func (q *attemptQueue) take(host string, localOnly, pendingOK bool) (id, attempt int, backup, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pick := -1
	if pendingOK {
		for i, cand := range q.pending {
			for _, h := range q.hosts[cand] {
				if h == host {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 && len(q.pending) > 0 && !localOnly {
			pick = 0
		}
	}
	if pick >= 0 {
		id = q.pending[pick]
		q.pending = append(q.pending[:pick], q.pending[pick+1:]...)
		q.running[id] = true
		q.started[id]++
		return id, q.started[id], false, true
	}
	if q.speculate && !localOnly {
		for cand := range q.running {
			if !q.done[cand] && !q.backed[cand] && (q.gate == nil || q.gate(cand)) {
				q.backed[cand] = true
				q.started[cand]++
				return cand, q.started[cand], true, true
			}
		}
	}
	return 0, 0, false, false
}

// isDone reports whether task id already has a winning completion — the
// check a cancelled duplicate attempt uses to tell "I lost the race"
// from "I failed".
func (q *attemptQueue) isDone(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done[id]
}

// completedCount returns how many tasks have a winning completion.
func (q *attemptQueue) completedCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.done)
}

// hasDispatchable reports whether a take could plausibly succeed: work
// is pending, or speculation could launch a backup. The gate is NOT
// consulted (it is time-dependent); the fair-share dispatcher treats a
// true here as "worth probing", not a guarantee.
func (q *attemptQueue) hasDispatchable() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) > 0 {
		return true
	}
	if !q.speculate {
		return false
	}
	for cand := range q.running {
		if !q.done[cand] && !q.backed[cand] {
			return true
		}
	}
	return false
}

// complete records a finished attempt, returning true for the FIRST
// completion of the task (later attempts are discarded duplicates).
func (q *attemptQueue) complete(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done[id] {
		return false
	}
	q.done[id] = true
	delete(q.running, id)
	q.remaining--
	if q.remaining == 0 {
		q.doneOnce.Do(func() { close(q.doneCh) })
	}
	return true
}

// fail records a budget-consuming failure of a non-backup attempt.
// requeued means another attempt was scheduled; fatal means the budget
// is exhausted and the job must fail.
func (q *attemptQueue) fail(id int) (requeued, fatal bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done[id] {
		return false, false
	}
	q.failed[id]++
	if q.failed[id] >= q.budget {
		return false, true
	}
	delete(q.running, id)
	q.pending = append(q.pending, id)
	return true, false
}

// attempts returns how many budget-consuming failures task id has had —
// at exhaustion this equals the budget, the count a fatal error reports.
func (q *attemptQueue) attempts(id int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed[id]
}

// requeueKilled reschedules an attempt that died with its node: no
// budget is consumed (a machine failure is not the task's fault). A
// killed backup just clears the backed flag so a fresh backup may be
// speculated later; the original attempt is still running.
func (q *attemptQueue) requeueKilled(id int, backup bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done[id] {
		return false
	}
	if backup {
		q.backed[id] = false
		return false
	}
	delete(q.running, id)
	q.pending = append(q.pending, id)
	return true
}

func (q *attemptQueue) finished() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remaining == 0
}

// attemptRegistry holds the cancel func of every running attempt, of
// every job and kind, so node death can kill a tracker's attempts at once
// (process death kills the task; the scheduler only *detects* it at
// expiry) and a task's first finisher can cancel its losers.
type attemptRegistry struct {
	mu   sync.Mutex
	live map[*liveAttempt]struct{}
}

// liveAttempt is one running attempt: attempt number of task of the
// job's kind, on tracker.
type liveAttempt struct {
	job                    string
	kind                   taskKind
	task, attempt, tracker int
	cancel                 context.CancelFunc
	killed                 bool // set by killAll, under the registry's mu
}

func newAttemptRegistry() *attemptRegistry {
	return &attemptRegistry{live: make(map[*liveAttempt]struct{})}
}

// begin registers a and returns its context, cancelled when ctx is, when
// its tracker is killed or when another attempt wins its task. finish
// unregisters it and reports whether it was killed with its node, which
// decides requeue-without-budget against budget consumption.
func (r *attemptRegistry) begin(ctx context.Context, a liveAttempt) (_ context.Context, finish func() (killed bool)) {
	ctx, a.cancel = context.WithCancel(ctx)
	r.mu.Lock()
	r.live[&a] = struct{}{}
	r.mu.Unlock()
	return ctx, func() bool {
		r.mu.Lock()
		delete(r.live, &a)
		killed := a.killed
		r.mu.Unlock()
		a.cancel()
		return killed
	}
}

// killAll cancels every attempt running on tracker ti.
func (r *attemptRegistry) killAll(ti int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for a := range r.live {
		if a.tracker == ti {
			a.killed = true
			a.cancel()
		}
	}
}

// cancelLosers cancels every other running attempt of the job's task:
// attempt won it, so their remaining work is pure waste.
func (r *attemptRegistry) cancelLosers(job string, kind taskKind, task, attempt int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for a := range r.live {
		if a.job == job && a.kind == kind && a.task == task && a.attempt != attempt {
			a.cancel()
		}
	}
}
