package chaos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

type fakeKiller struct {
	mu      sync.Mutex
	killed  []string
	revived []string
	refuse  bool
}

func (k *fakeKiller) KillTracker(host string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.refuse {
		return errors.New("refused")
	}
	k.killed = append(k.killed, host)
	return nil
}

func (k *fakeKiller) ReviveTracker(host string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.revived = append(k.revived, host)
	return nil
}

func (k *fakeKiller) snapshot() (killed, revived []string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.killed...), append([]string(nil), k.revived...)
}

// note delivers one announcement the way scheduleServer does, without a
// tracker, and reports whether the output was lost.
func note(s *Schedule, host string, mapID int) bool {
	lose, kills := s.announce(host, mapID)
	for _, kill := range kills {
		go kill()
	}
	return lose
}

func TestNodeScheduleFiresAtOutputCount(t *testing.T) {
	k := &fakeKiller{}
	s := Wrap(nil, nil, Event{At: 3, Kind: KillTracker, Host: "node2"})
	s.SetKiller(k)

	note(s, "node0", 0)
	note(s, "node1", 1)
	if killed, _ := k.snapshot(); len(killed) != 0 {
		t.Fatalf("fired early: %v", killed)
	}
	note(s, "node0", 2)
	s.Wait()
	killed, _ := k.snapshot()
	if len(killed) != 1 || killed[0] != "node2" {
		t.Fatalf("killed = %v, want [node2]", killed)
	}
	if got := s.Kills(); len(got) != 1 || got[0] != "node2" {
		t.Fatalf("Kills() = %v", got)
	}
	// The script is one-shot: more outputs don't re-fire.
	note(s, "node1", 3)
	s.Wait()
	if killed, _ := k.snapshot(); len(killed) != 1 {
		t.Fatalf("crash re-fired: %v", killed)
	}
}

func TestNodeScheduleKillsAnnouncingHost(t *testing.T) {
	k := &fakeKiller{}
	s := Wrap(nil, nil, Event{At: 2, Kind: KillTracker})
	s.SetKiller(k)

	note(s, "node3", 0)
	note(s, "node1", 1)
	s.Wait()
	if killed, _ := k.snapshot(); len(killed) != 1 || killed[0] != "node1" {
		t.Fatalf("killed = %v, want the announcing host node1", killed)
	}
}

func TestNodeScheduleRevives(t *testing.T) {
	k := &fakeKiller{}
	s := Wrap(nil, nil, Event{At: 1, Kind: KillTracker, Host: "node1", Undo: 5 * time.Millisecond})
	s.SetKiller(k)

	note(s, "node0", 0)
	s.Wait()
	killed, revived := k.snapshot()
	if len(killed) != 1 || len(revived) != 1 || revived[0] != "node1" {
		t.Fatalf("killed = %v revived = %v", killed, revived)
	}
}

// A refused kill (the cluster's last live tracker) records no kill and
// leaves the tracker serving: nothing is revived later either.
func TestNodeScheduleRefusedKillRestoresDialability(t *testing.T) {
	k := &fakeKiller{refuse: true}
	s := Wrap(nil, nil, Event{At: 1, Kind: KillTracker, Host: "node0", Undo: time.Millisecond})
	s.SetKiller(k)

	note(s, "node0", 0)
	s.Wait()
	if got := s.Kills(); len(got) != 0 {
		t.Fatalf("Kills() = %v after a refused kill", got)
	}
	if killed, revived := k.snapshot(); len(killed) != 0 || len(revived) != 0 {
		t.Fatalf("killed = %v revived = %v after a refused kill", killed, revived)
	}
}

func TestNodeScheduleWaitsForKiller(t *testing.T) {
	k := &fakeKiller{}
	s := Wrap(nil, nil, Event{At: 1, Kind: KillTracker, Host: "node1"})

	// Trigger count passes with no killer attached: nothing fires...
	note(s, "node0", 0)
	s.Wait()
	if killed, _ := k.snapshot(); len(killed) != 0 {
		t.Fatalf("fired without a killer: %v", killed)
	}
	// ...but the crash is still pending and fires on the next output
	// once a killer exists.
	s.SetKiller(k)
	note(s, "node2", 1)
	s.Wait()
	if killed, _ := k.snapshot(); len(killed) != 1 || killed[0] != "node1" {
		t.Fatalf("killed = %v, want [node1]", killed)
	}
}

// KillPeer needs no killer: the announcing host's dials are refused at
// once, and accepted again after the undo.
func TestNodeScheduleKillPeerUntilUndo(t *testing.T) {
	s := Wrap(nil, New(Config{}), Event{At: 1, Kind: KillPeer, Undo: 5 * time.Millisecond})
	note(s, "node1", 0)
	if !s.inj.DialRefused("node0", "node1") {
		t.Fatal("dials toward the killed peer are accepted")
	}
	s.Wait()
	if s.inj.DialRefused("node0", "node1") {
		t.Fatal("revived peer must accept dials again")
	}
}

// Two LoseOutput events on one map take its first two announcements once
// due; other maps and the third announcement are spared.
func TestNodeScheduleLosesSuccessiveOutputs(t *testing.T) {
	s := Wrap(nil, nil, Event{At: 2, Kind: LoseOutput, Map: 4}, Event{At: 2, Kind: LoseOutput, Map: 4})
	var lost []bool
	for _, mapID := range []int{4, 3, 4, 4, 4} {
		lost = append(lost, note(s, "node0", mapID))
	}
	if want := []bool{false, false, true, true, false}; fmt.Sprint(lost) != fmt.Sprint(want) {
		t.Fatalf("lost = %v, want %v", lost, want)
	}
}
