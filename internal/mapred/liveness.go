package mapred

import (
	"fmt"
	"sync"
	"time"

	"rdmamr/internal/obs"
)

// This file is the cluster scheduler's failure detector and the plumbing
// that lets the rest of the job layer react to node death:
//
//   - livenessMonitor: the heartbeat loop between each TaskTracker and
//     the scheduler (mapred.tasktracker.expiry.interval). Each tracker
//     beats while its process is "up"; a sweep decommissions any member
//     whose last beat is older than the expiry window. The clock is
//     injectable (like health.go) so tests drive beat/sweep directly.
//   - TrackerLossFeed: the push channel telling in-flight reduce
//     fetchers a host is gone, so they fast-fail its connections instead
//     of waiting out request deadlines and reconnect budgets.

// trackerLiveState tracks one TaskTracker's membership.
//
// `up` models the process: false after KillTracker (heartbeats stop, no
// task may run there). `alive` models the scheduler's view: true until
// the missing heartbeats exceed the expiry window and the tracker is
// decommissioned. The gap between the two is the detection delay the
// paper's Hadoop baseline also has. `killed` separates real process
// death (KillTracker) from a sweep's expiry verdict: only a killed
// tracker's heartbeats stop for good, so a decommissioned-but-unkilled
// member that beats again was a false positive and is re-admitted by
// the next sweep.
type trackerLiveState struct {
	host     string
	lastBeat time.Time
	up       bool
	alive    bool
	killed   bool
	changed  chan struct{} // closed and replaced on every transition
}

// livenessMonitor is the scheduler-side failure detector.
type livenessMonitor struct {
	now    func() time.Time
	expiry time.Duration

	mu       sync.Mutex
	states   []trackerLiveState
	watchers map[int]func(ti int, host string)
	nextW    int
	// onExpire is the cluster-level decommission hook (counters, attempt
	// cancellation, responder shutdown); job-level watchers run after it.
	onExpire func(ti int, host string)
	// onRecover is the cluster-level re-admission hook, invoked by the
	// sweep when a decommissioned (but never killed) tracker's heartbeats
	// resume — an expiry false positive, e.g. a starved beat goroutine on
	// an overloaded machine. Runs in the sweep goroutine, serialized with
	// onExpire, so a revival can never interleave with the decommission
	// that preceded it.
	onRecover func(ti int, host string)
	// hbCount counts live heartbeats; hbInterval observes the spacing
	// between consecutive heartbeats of one tracker (nil = off). Both
	// are assigned before start().
	hbCount    *obs.Counter
	hbInterval *obs.Histogram

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newLivenessMonitor(hosts []string, expiry time.Duration, now func() time.Time, onExpire func(ti int, host string)) *livenessMonitor {
	if now == nil {
		now = time.Now
	}
	lv := &livenessMonitor{
		now:      now,
		expiry:   expiry,
		watchers: make(map[int]func(int, string)),
		onExpire: onExpire,
		stop:     make(chan struct{}),
	}
	t := now()
	for _, h := range hosts {
		lv.states = append(lv.states, trackerLiveState{
			host: h, lastBeat: t, up: true, alive: true,
			changed: make(chan struct{}),
		})
	}
	return lv
}

// start spawns one heartbeat goroutine per tracker and one sweep
// goroutine, all ticking at a quarter of the expiry window so a dead
// tracker is detected within ~1.25 expiry intervals.
func (lv *livenessMonitor) start() {
	interval := lv.expiry / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	for ti := range lv.states {
		lv.wg.Add(1)
		go func(ti int) {
			defer lv.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-lv.stop:
					return
				case <-t.C:
					lv.beat(ti)
				}
			}
		}(ti)
	}
	lv.wg.Add(1)
	go func() {
		defer lv.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-lv.stop:
				return
			case <-t.C:
				lv.sweep()
			}
		}
	}()
}

func (lv *livenessMonitor) stopAll() {
	lv.stopOnce.Do(func() { close(lv.stop) })
	lv.wg.Wait()
}

// beat records a heartbeat from tracker ti. A killed tracker's process
// is gone, so its beats stop flowing. Live beats are counted and their
// spacing observed.
func (lv *livenessMonitor) beat(ti int) {
	t0 := lv.now()
	lv.mu.Lock()
	up := lv.states[ti].up
	var prev time.Time
	// A killed tracker's process is gone: its clock freezes. A merely
	// decommissioned one still beats — keep stamping lastBeat so the
	// sweep can notice the expiry was a false positive and re-admit it.
	if !lv.states[ti].killed {
		prev = lv.states[ti].lastBeat
		lv.states[ti].lastBeat = t0
	}
	lv.mu.Unlock()
	if !up {
		return
	}
	lv.hbCount.Add(1)
	if !prev.IsZero() {
		lv.hbInterval.Observe(t0.Sub(prev))
	}
}

// sweep decommissions every member whose heartbeat has expired, and
// re-admits any decommissioned (never killed) member whose heartbeats
// have resumed — the expiry was a false positive. Hooks and watchers
// run outside the lock (they call back into liveness).
func (lv *livenessMonitor) sweep() {
	type victim struct {
		ti   int
		host string
	}
	var victims, ghosts []victim
	now := lv.now()
	lv.mu.Lock()
	for ti := range lv.states {
		st := &lv.states[ti]
		if st.alive && now.Sub(st.lastBeat) > lv.expiry {
			st.alive = false
			st.up = false
			lv.transitionLocked(ti)
			victims = append(victims, victim{ti, st.host})
		} else if !st.alive && !st.killed && now.Sub(st.lastBeat) <= lv.expiry {
			ghosts = append(ghosts, victim{ti, st.host})
		}
	}
	var watchers []func(int, string)
	if len(victims) > 0 {
		for _, w := range lv.watchers {
			watchers = append(watchers, w)
		}
	}
	lv.mu.Unlock()
	for _, v := range victims {
		if lv.onExpire != nil {
			lv.onExpire(v.ti, v.host)
		}
		for _, w := range watchers {
			w(v.ti, v.host)
		}
	}
	for _, g := range ghosts {
		if lv.onRecover != nil {
			lv.onRecover(g.ti, g.host)
		}
	}
}

func (lv *livenessMonitor) transitionLocked(ti int) {
	close(lv.states[ti].changed)
	lv.states[ti].changed = make(chan struct{})
}

// suppress models process death for tracker ti: heartbeats stop and no
// new work may be placed there. The scheduler notices at the next
// expired sweep. Killing the last live tracker is refused — the cluster
// would have nowhere left to run anything.
func (lv *livenessMonitor) suppress(ti int) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if !lv.states[ti].up {
		return nil
	}
	up := 0
	for i := range lv.states {
		if lv.states[i].up {
			up++
		}
	}
	if up <= 1 {
		return fmt.Errorf("mapred: refusing to kill %s: last live tracker", lv.states[ti].host)
	}
	lv.states[ti].up = false
	lv.states[ti].killed = true
	lv.transitionLocked(ti)
	return nil
}

// revive re-admits tracker ti: heartbeats resume, membership is
// restored, and parked slot workers wake.
func (lv *livenessMonitor) revive(ti int) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	st := &lv.states[ti]
	st.up = true
	st.alive = true
	st.killed = false
	st.lastBeat = lv.now()
	lv.transitionLocked(ti)
}

// status reports whether ti can run tasks, plus a channel closed on its
// next state transition (for parking slot workers).
func (lv *livenessMonitor) status(ti int) (bool, <-chan struct{}) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.states[ti].up, lv.states[ti].changed
}

func (lv *livenessMonitor) isUp(ti int) bool {
	up, _ := lv.status(ti)
	return up
}

// isAlive reports whether the scheduler still counts ti as a member:
// false from its decommission until it is revived.
func (lv *livenessMonitor) isAlive(ti int) bool {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.states[ti].alive
}

// pickUp returns the first live tracker scanning from start (wrapping),
// optionally avoiding one host. ok is false when nothing is up.
func (lv *livenessMonitor) pickUp(start int, avoid string) (int, bool) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	n := len(lv.states)
	fallback := -1
	for i := 0; i < n; i++ {
		ti := ((start+i)%n + n) % n
		if !lv.states[ti].up {
			continue
		}
		if lv.states[ti].host == avoid {
			if fallback < 0 {
				fallback = ti
			}
			continue
		}
		return ti, true
	}
	if fallback >= 0 {
		return fallback, true
	}
	return 0, false
}

// watch registers a decommission callback for the duration of a job and
// returns its unregister func.
func (lv *livenessMonitor) watch(fn func(ti int, host string)) func() {
	lv.mu.Lock()
	id := lv.nextW
	lv.nextW++
	lv.watchers[id] = fn
	lv.mu.Unlock()
	return func() {
		lv.mu.Lock()
		delete(lv.watchers, id)
		lv.mu.Unlock()
	}
}

// TrackerLossFeed pushes "host X is gone" announcements from the
// scheduler's failure detector to in-flight reduce fetchers. Without it
// a fetcher only learns of a dead TaskTracker when its requests time out
// or its reconnect budget drains; with it the fetcher can fail the
// host's connection immediately and escalate straight to map recovery.
//
// Subscribers get a replay of every loss announced so far plus live
// updates. Channels are buffered generously relative to the bounded
// announcement volume (at most one per decommission event); a full
// subscriber is skipped rather than blocking the failure detector — the
// fetcher then falls back to the deadline path, which stays correct.
type TrackerLossFeed struct {
	mu   sync.Mutex
	lost []string
	subs map[int]chan string
	next int
}

// NewTrackerLossFeed returns an empty feed.
func NewTrackerLossFeed() *TrackerLossFeed {
	return &TrackerLossFeed{subs: make(map[int]chan string)}
}

// Announce records a lost host and notifies all subscribers.
func (f *TrackerLossFeed) Announce(host string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lost = append(f.lost, host)
	for _, ch := range f.subs {
		select {
		case ch <- host:
		default:
		}
	}
}

// Retract removes a host from the replay list after it is revived, so
// attempts that subscribe later don't condemn a live host on stale
// news. A subscriber that already marked the host lost keeps its
// verdict — its retry subscribes fresh and converges.
func (f *TrackerLossFeed) Retract(host string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.lost[:0]
	for _, h := range f.lost {
		if h != host {
			kept = append(kept, h)
		}
	}
	f.lost = kept
}

// Subscribe returns a channel replaying past announcements then
// streaming new ones, plus an unsubscribe func. Safe on a nil feed
// (engines treat a nil feed as "no liveness information").
func (f *TrackerLossFeed) Subscribe() (<-chan string, func()) {
	if f == nil {
		return nil, func() {}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan string, len(f.lost)+64)
	for _, h := range f.lost {
		ch <- h
	}
	id := f.next
	f.next++
	f.subs[id] = ch
	return ch, func() {
		f.mu.Lock()
		delete(f.subs, id)
		f.mu.Unlock()
	}
}
