package mapred

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/obs"
)

// fakeClock drives the liveness monitor deterministically: tests call
// beat/sweep directly and advance time by hand, never starting the
// real ticker goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type expiryRecorder struct {
	mu    sync.Mutex
	hosts []string
}

func (r *expiryRecorder) record(_ int, host string) {
	r.mu.Lock()
	r.hosts = append(r.hosts, host)
	r.mu.Unlock()
}

func (r *expiryRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.hosts...)
}

func testMonitor(t *testing.T, hosts []string, expiry time.Duration) (*livenessMonitor, *fakeClock, *expiryRecorder) {
	t.Helper()
	clk := newFakeClock()
	rec := &expiryRecorder{}
	return newLivenessMonitor(hosts, expiry, clk.now, rec.record), clk, rec
}

func TestLivenessExpiryDecommissionsSilentTracker(t *testing.T) {
	lv, clk, rec := testMonitor(t, []string{"node0", "node1", "node2"}, 100*time.Millisecond)

	// Everyone beats, clock moves, nobody expires.
	clk.advance(60 * time.Millisecond)
	for ti := range lv.states {
		lv.beat(ti)
	}
	clk.advance(60 * time.Millisecond)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("no tracker should expire while within the window, got %v", got)
	}

	// node1 goes silent; the others keep beating past the expiry window.
	for i := 0; i < 3; i++ {
		clk.advance(60 * time.Millisecond)
		lv.beat(0)
		lv.beat(2)
	}
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "node1" {
		t.Fatalf("expected exactly node1 to expire, got %v", got)
	}
	if lv.isUp(1) {
		t.Fatal("expired tracker should not be up")
	}
	if !lv.isUp(0) || !lv.isUp(2) {
		t.Fatal("beating trackers must stay up")
	}

	// Expiry is edge-triggered: a second sweep must not re-fire.
	clk.advance(time.Second)
	lv.beat(0)
	lv.beat(2)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 {
		t.Fatalf("decommission must fire once per death, got %v", got)
	}
}

func TestLivenessSuppressStopsHeartbeats(t *testing.T) {
	lv, clk, rec := testMonitor(t, []string{"node0", "node1"}, 50*time.Millisecond)

	if err := lv.suppress(0); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	if lv.isUp(0) {
		t.Fatal("suppressed tracker must be down immediately")
	}
	// A killed process can't beat: beats on a suppressed tracker are
	// dropped, so the scheduler notices at the next expired sweep.
	clk.advance(200 * time.Millisecond)
	lv.beat(0)
	lv.beat(1)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "node0" {
		t.Fatalf("scheduler should detect the kill at sweep time, got %v", got)
	}
}

func TestLivenessSuppressRefusesLastTracker(t *testing.T) {
	lv, _, _ := testMonitor(t, []string{"node0", "node1"}, time.Second)

	if err := lv.suppress(1); err != nil {
		t.Fatalf("first kill should succeed: %v", err)
	}
	err := lv.suppress(0)
	if err == nil {
		t.Fatal("killing the last live tracker must be refused")
	}
	if !strings.Contains(err.Error(), "node0") || !strings.Contains(err.Error(), "last live tracker") {
		t.Fatalf("refusal should name the tracker and reason, got %v", err)
	}
	if !lv.isUp(0) {
		t.Fatal("refused kill must leave the tracker up")
	}
	// Suppressing an already-down tracker is a no-op, not a refusal.
	if err := lv.suppress(1); err != nil {
		t.Fatalf("re-suppressing a dead tracker should be a no-op: %v", err)
	}
}

func TestLivenessReviveRestoresMembership(t *testing.T) {
	lv, clk, rec := testMonitor(t, []string{"node0", "node1"}, 50*time.Millisecond)

	if err := lv.suppress(0); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	clk.advance(200 * time.Millisecond)
	lv.beat(1)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 {
		t.Fatalf("expected node0 decommissioned, got %v", got)
	}

	lv.revive(0)
	if !lv.isUp(0) {
		t.Fatal("revived tracker must be up")
	}
	// The revive reset lastBeat, so the next sweep must not re-expire it.
	clk.advance(20 * time.Millisecond)
	lv.beat(0)
	lv.beat(1)
	clk.advance(20 * time.Millisecond)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 {
		t.Fatalf("revived beating tracker must not re-expire, got %v", got)
	}
}

func TestLivenessFalsePositiveExpiryRecovers(t *testing.T) {
	lv, clk, rec := testMonitor(t, []string{"node0", "node1"}, 100*time.Millisecond)
	var recovered []string
	lv.onRecover = func(ti int, host string) {
		recovered = append(recovered, host)
		lv.revive(ti) // what the cluster hook does (via ReviveTracker)
	}

	// node1's beat goroutine stalls past the window (nobody killed it):
	// the sweep decommissions it like any other silent member.
	clk.advance(200 * time.Millisecond)
	lv.beat(0)
	lv.sweep()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "node1" {
		t.Fatalf("expected node1 decommissioned, got %v", got)
	}
	if lv.isUp(1) {
		t.Fatal("decommissioned tracker must be down until its beats resume")
	}

	// Its process was alive all along: the next beat proves it, and the
	// next sweep re-admits it through onRecover.
	clk.advance(10 * time.Millisecond)
	lv.beat(1)
	lv.sweep()
	if len(recovered) != 1 || recovered[0] != "node1" {
		t.Fatalf("onRecover = %v, want [node1]", recovered)
	}
	if !lv.isUp(1) {
		t.Fatal("recovered tracker must be up")
	}
	// Recovery is edge-triggered: a further beating sweep must not re-fire.
	clk.advance(10 * time.Millisecond)
	lv.beat(0)
	lv.beat(1)
	lv.sweep()
	if len(recovered) != 1 {
		t.Fatalf("onRecover must fire once per false positive, got %v", recovered)
	}

	// A KILLED tracker's beats are dropped, so it can never ghost back:
	// suppress, expire, then call beat anyway (as a bug would).
	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	clk.advance(200 * time.Millisecond)
	lv.beat(0)
	lv.beat(1)
	lv.sweep()
	clk.advance(10 * time.Millisecond)
	lv.beat(1)
	lv.sweep()
	if len(recovered) != 1 {
		t.Fatalf("killed tracker must not auto-recover, got %v", recovered)
	}
	if lv.isUp(1) {
		t.Fatal("killed tracker must stay down")
	}
}

func TestLivenessStatusChangeChannelClosesOnTransition(t *testing.T) {
	lv, _, _ := testMonitor(t, []string{"node0", "node1"}, time.Second)

	up, changed := lv.status(0)
	if !up {
		t.Fatal("fresh tracker should be up")
	}
	select {
	case <-changed:
		t.Fatal("change channel must stay open until a transition")
	default:
	}
	if err := lv.suppress(0); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	select {
	case <-changed:
	default:
		t.Fatal("suppress must close the pre-transition change channel")
	}
	// The replacement channel closes on the next transition (revive).
	_, changed2 := lv.status(0)
	lv.revive(0)
	select {
	case <-changed2:
	default:
		t.Fatal("revive must close the change channel again")
	}
}

func TestLivenessPickUpScansAndAvoids(t *testing.T) {
	lv, _, _ := testMonitor(t, []string{"node0", "node1", "node2", "node3"}, time.Second)

	if ti, ok := lv.pickUp(2, ""); !ok || ti != 2 {
		t.Fatalf("all up: pickUp(2) = %d,%v, want 2,true", ti, ok)
	}
	if err := lv.suppress(2); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	// Scan wraps past the dead tracker.
	if ti, ok := lv.pickUp(2, ""); !ok || ti != 3 {
		t.Fatalf("pickUp(2) with node2 down = %d,%v, want 3,true", ti, ok)
	}
	// avoid skips a live host when an alternative exists...
	if ti, ok := lv.pickUp(3, "node3"); !ok || ti != 0 {
		t.Fatalf("pickUp(3, avoid node3) = %d,%v, want 0,true", ti, ok)
	}
	// ...but falls back to it when it is the only live choice.
	if err := lv.suppress(0); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	if ti, ok := lv.pickUp(0, "node3"); !ok || ti != 3 {
		t.Fatalf("pickUp with only the avoided host up = %d,%v, want 3,true", ti, ok)
	}
}

func TestLivenessWatcherFiresOnceAndUnregisters(t *testing.T) {
	lv, clk, _ := testMonitor(t, []string{"node0", "node1"}, 50*time.Millisecond)

	var calls []string
	unwatch := lv.watch(func(_ int, host string) { calls = append(calls, host) })

	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	clk.advance(200 * time.Millisecond)
	lv.beat(0)
	lv.sweep()
	if len(calls) != 1 || calls[0] != "node1" {
		t.Fatalf("watcher should see node1's decommission, got %v", calls)
	}

	unwatch()
	lv.revive(1)
	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	clk.advance(200 * time.Millisecond)
	lv.beat(0)
	lv.sweep()
	if len(calls) != 1 {
		t.Fatalf("unregistered watcher must not fire, got %v", calls)
	}
}

func TestLivenessStartDetectsDeadTrackerWithRealClock(t *testing.T) {
	// End-to-end through the real goroutines: a short expiry window and
	// a suppressed tracker should produce a decommission without any
	// manual beat/sweep calls.
	clk := time.Now
	rec := &expiryRecorder{}
	// 250 ms, as nodeDeathConf: a 20 ms window is below scheduler jitter
	// when other packages' tests share the machine, and node0 expired too.
	lv := newLivenessMonitor([]string{"node0", "node1"}, 250*time.Millisecond, clk, rec.record)
	lv.start()
	defer lv.stopAll()

	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := rec.snapshot(); len(got) == 1 && got[0] == "node1" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("heartbeat loop never decommissioned the killed tracker: %v", rec.snapshot())
}

func TestAttemptRegistryKillCancelsOnlyThatTracker(t *testing.T) {
	reg := newAttemptRegistry()
	on := func(ti, task int) liveAttempt {
		return liveAttempt{job: "j", kind: mapKind, task: task, attempt: 1, tracker: ti}
	}

	ctx0a, finish0a := reg.begin(context.Background(), on(0, 0))
	ctx0b, finish0b := reg.begin(context.Background(), on(0, 1))
	ctx1, finish1 := reg.begin(context.Background(), on(1, 2))

	reg.killAll(0)
	if ctx0a.Err() == nil || ctx0b.Err() == nil {
		t.Fatal("killAll must cancel every attempt on the dead tracker")
	}
	if ctx1.Err() != nil {
		t.Fatal("attempts on other trackers must keep running")
	}
	if !finish0a() || !finish0b() {
		t.Fatal("killed attempts must report killed=true at finish")
	}
	if finish1() {
		t.Fatal("surviving attempt must report killed=false")
	}

	// finish unregisters: a later killAll must not observe old attempts.
	reg.killAll(0)
	ctx0c, finish0c := reg.begin(context.Background(), on(0, 0))
	if ctx0c.Err() != nil {
		t.Fatal("new attempt after killAll must start uncancelled")
	}
	if finish0c() {
		t.Fatal("fresh attempt must not inherit a kill")
	}
}

func TestAttemptRegistryCancelLosersSparesAllButSiblings(t *testing.T) {
	reg := newAttemptRegistry()
	begin := func(job string, kind taskKind, task, attempt int) (context.Context, func() bool) {
		return reg.begin(context.Background(), liveAttempt{job: job, kind: kind, task: task, attempt: attempt, tracker: attempt % 2})
	}
	winner, finishWinner := begin("a", mapKind, 3, 1)
	loser, finishLoser := begin("a", mapKind, 3, 2)
	otherTask, finishOtherTask := begin("a", mapKind, 4, 2)
	otherKind, finishOtherKind := begin("a", reduceKind, 3, 2)
	otherJob, finishOtherJob := begin("b", mapKind, 3, 2)

	reg.cancelLosers("a", mapKind, 3, 1)
	if loser.Err() == nil {
		t.Fatal("cancelLosers must cancel the task's other attempt")
	}
	for name, ctx := range map[string]context.Context{
		"winner": winner, "same job's other task": otherTask,
		"other kind's task with the same id": otherKind, "other job's attempt": otherJob,
	} {
		if ctx.Err() != nil {
			t.Fatalf("cancelLosers cancelled the %s", name)
		}
	}
	// A cancelled loser was not killed with its node.
	if finishLoser() {
		t.Fatal("a cancelled loser must report killed=false")
	}
	for _, finish := range []func() bool{finishWinner, finishOtherTask, finishOtherKind, finishOtherJob} {
		if finish() {
			t.Fatal("no attempt was killed, yet finish reported killed")
		}
	}
	// Killed is reported only after a killAll of the attempt's own tracker.
	_, onOne := begin("a", mapKind, 5, 1)
	_, onZero := begin("a", mapKind, 5, 2)
	reg.killAll(1)
	if !onOne() || onZero() {
		t.Fatal("finish must report killed exactly for the killed tracker's attempt")
	}
}

func TestTrackerLossFeedReplayAndLive(t *testing.T) {
	f := NewTrackerLossFeed()
	f.Announce("node2")

	ch, unsub := f.Subscribe()
	defer unsub()
	// Replay of announcements made before subscribing.
	select {
	case h := <-ch:
		if h != "node2" {
			t.Fatalf("replayed host = %q, want node2", h)
		}
	default:
		t.Fatal("subscriber must see pre-subscription losses")
	}
	// Live announcements flow through.
	f.Announce("node0")
	select {
	case h := <-ch:
		if h != "node0" {
			t.Fatalf("live host = %q, want node0", h)
		}
	default:
		t.Fatal("subscriber must see live losses")
	}

	if got := f.Lost(); len(got) != 2 || got[0] != "node2" || got[1] != "node0" {
		t.Fatalf("Lost() = %v, want [node2 node0]", got)
	}

	// After unsubscribe the feed stops delivering (and doesn't panic).
	unsub()
	f.Announce("node1")
	select {
	case h, ok := <-ch:
		if ok {
			t.Fatalf("unsubscribed channel received %q", h)
		}
	default:
	}
}

func TestTrackerLossFeedRetractStopsReplay(t *testing.T) {
	f := NewTrackerLossFeed()
	f.Announce("node1")
	f.Announce("node2")
	f.Retract("node1") // node1 revived: stale news must not replay

	ch, unsub := f.Subscribe()
	defer unsub()
	select {
	case h := <-ch:
		if h != "node2" {
			t.Fatalf("replayed host = %q, want node2 only", h)
		}
	default:
		t.Fatal("still-lost host must replay")
	}
	select {
	case h := <-ch:
		t.Fatalf("retracted host %q must not replay", h)
	default:
	}
	if got := f.Lost(); len(got) != 1 || got[0] != "node2" {
		t.Fatalf("Lost() = %v, want [node2]", got)
	}
	// Retracting on a nil feed or for an unknown host is a no-op.
	var nilFeed *TrackerLossFeed
	nilFeed.Retract("node0")
	f.Retract("node9")
}

func TestTrackerLossFeedNilSafe(t *testing.T) {
	var f *TrackerLossFeed
	f.Announce("node0")
	if got := f.Lost(); got != nil {
		t.Fatalf("nil feed Lost() = %v, want nil", got)
	}
	ch, unsub := f.Subscribe()
	if ch != nil {
		t.Fatal("nil feed must return a nil subscription channel")
	}
	unsub()
}

// Lost returns the hosts announced so far (latest snapshot).
func (f *TrackerLossFeed) Lost() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.lost...)
}

// Registry returns the cluster's own registry: the JobTracker's,
// liveness and recovery counters and, with telemetry on, the ucr
// histograms. Each node's work is counted in its tracker's registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Events returns the scheduler's structured event log.
func (c *Cluster) Events() *obs.EventLog { return c.events }
