package core

import (
	"testing"
	"time"

	"rdmamr/internal/obs"
)

// recordFailure is recordFailureGen outside any shared connection.
func (ph *peerHealth) recordFailure(c *obs.Registry) int { return ph.recordFailureGen(0, c) }

// recordSuccess is recordSuccessGen outside any shared connection.
func (ph *peerHealth) recordSuccess() { ph.recordSuccessGen(0) }

// penaltyNow reports the accumulated blacklist penalty.
func (ph *peerHealth) penaltyNow() time.Duration {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.penalty
}

// fakeClock drives peerHealth deterministically — no sleeps anywhere.
type fakeClock struct{ t time.Time }

func (fc *fakeClock) now() time.Time          { return fc.t }
func (fc *fakeClock) advance(d time.Duration) { fc.t = fc.t.Add(d) }
func newHealthClock() (*peerHealth, *fakeClock) {
	fc := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	return &peerHealth{now: fc.now}, fc
}

func TestHealthBlacklistThreshold(t *testing.T) {
	ph, _ := newHealthClock()
	c := obs.NewRegistry()
	for i := 1; i < blacklistAfter; i++ {
		if got := ph.recordFailure(c); got != i {
			t.Fatalf("failure %d counted as %d", i, got)
		}
		if d := ph.admissionDelay(); d != 0 {
			t.Fatalf("embargoed after only %d failures: %v", i, d)
		}
	}
	ph.recordFailure(c)
	if c.Counter("shuffle.rdma.blacklist.trips").Get() != 1 {
		t.Fatalf("trips = %d, want 1", c.Counter("shuffle.rdma.blacklist.trips").Get())
	}
	if d := ph.admissionDelay(); d != blacklistBase {
		t.Fatalf("first embargo = %v, want %v", d, blacklistBase)
	}
}

func TestHealthPenaltyDoublesAndCaps(t *testing.T) {
	ph, fc := newHealthClock()
	c := obs.NewRegistry()
	// The threshold failure sets the base penalty; every further failure
	// in the streak doubles it until blacklistMax, where it saturates.
	for i := 0; i < blacklistAfter; i++ {
		ph.recordFailure(c)
	}
	want := []time.Duration{
		blacklistBase,
		2 * blacklistBase,
		4 * blacklistBase,
		8 * blacklistBase, // = blacklistMax
		8 * blacklistBase, // saturated
		8 * blacklistBase,
	}
	for i, w := range want {
		if got := ph.penaltyNow(); got != w {
			t.Fatalf("after %d over-threshold failures penalty = %v, want %v", i, got, w)
		}
		if d := ph.admissionDelay(); d != w {
			t.Fatalf("after %d over-threshold failures embargo = %v, want %v", i, d, w)
		}
		ph.recordFailure(c)
	}
	// Every at-or-past-threshold failure tripped the counter.
	if got := c.Counter("shuffle.rdma.blacklist.trips").Get(); got != int64(len(want))+1 {
		t.Fatalf("trips = %d, want %d", got, len(want)+1)
	}
	// Embargoes lapse with the clock, never by themselves.
	fc.advance(blacklistMax)
	if d := ph.admissionDelay(); d != 0 {
		t.Fatalf("embargo did not lapse: %v", d)
	}
}

func TestHealthSuccessHalvesPenaltyAndResetsStreak(t *testing.T) {
	ph, _ := newHealthClock()
	c := obs.NewRegistry()
	for i := 0; i < blacklistAfter; i++ {
		ph.recordFailure(c)
	}
	if ph.penaltyNow() != blacklistBase {
		t.Fatalf("penalty = %v", ph.penaltyNow())
	}
	ph.recordSuccess()
	if got := ph.penaltyNow(); got != blacklistBase/2 {
		t.Fatalf("penalty after success = %v, want %v", got, blacklistBase/2)
	}
	// The streak is reset: the next failure is failure #1, not #4.
	if got := ph.recordFailure(c); got != 1 {
		t.Fatalf("streak after success = %d, want 1", got)
	}
	// Repeated successes halve the penalty all the way to zero.
	for i := 0; i < 64 && ph.penaltyNow() > 0; i++ {
		ph.recordSuccess()
	}
	if ph.penaltyNow() != 0 {
		t.Fatalf("penalty never decayed to zero: %v", ph.penaltyNow())
	}
}

func TestHealthAdmissionDelayEdges(t *testing.T) {
	ph, fc := newHealthClock()
	c := obs.NewRegistry()
	if ph.admissionDelay() != 0 {
		t.Fatal("fresh peer must admit immediately")
	}
	for i := 0; i < blacklistAfter; i++ {
		ph.recordFailure(c)
	}
	if d := ph.admissionDelay(); d != blacklistBase {
		t.Fatalf("embargo = %v", d)
	}
	// Partway through, the remaining delay shrinks exactly with the clock.
	fc.advance(blacklistBase / 2)
	if d := ph.admissionDelay(); d != blacklistBase/2 {
		t.Fatalf("half-lapsed embargo = %v, want %v", d, blacklistBase/2)
	}
	// At exactly the deadline the delay is zero, not negative.
	fc.advance(blacklistBase / 2)
	if d := ph.admissionDelay(); d != 0 {
		t.Fatalf("lapsed embargo = %v, want 0", d)
	}
	// A success does not resurrect an expired embargo.
	ph.recordSuccess()
	fc.advance(-blacklistBase) // even with the clock wound back before blackUntil...
	if d := ph.admissionDelay(); d != blacklistBase {
		t.Fatalf("rewound clock: delay = %v, want %v (blackUntil is absolute)", d, blacklistBase)
	}
}

// TestHealthForSharesPerDeviceAndHost: a node keeps one health record per
// remote host, on its device's connection plane, and different hosts
// never share one.
func TestHealthForSharesPerDeviceAndHost(t *testing.T) {
	h := newRingHarness(t, stressConf(2), 1, 4)
	a := planeOf(h.tt).healthOf("nodeA")
	if planeOf(h.tt).healthOf("nodeA") != a {
		t.Fatal("same device+host must share one record")
	}
	if planeOf(h.tt).healthOf("nodeB") == a {
		t.Fatal("different hosts must not share a record")
	}
}
