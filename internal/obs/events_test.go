package obs

import (
	"strings"
	"testing"
	"time"
)

func TestEventLogRingRetainsNewest(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		seq := l.Append(Event{Type: EvAttemptRetried, Task: string(rune('a' + i))})
		if seq != int64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(7 + i); e.Seq != want {
			t.Errorf("event %d has seq %d, want %d (oldest-first newest window)", i, e.Seq, want)
		}
	}
	snap := l.Snapshot()
	if snap.Total != 10 || snap.Dropped != 6 || len(snap.Events) != 4 {
		t.Errorf("snapshot = total %d dropped %d len %d, want 10/6/4", snap.Total, snap.Dropped, len(snap.Events))
	}
}

func TestEventLogTailSince(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 6; i++ {
		l.Append(Event{Type: EvHeartbeatExpired})
	}
	evs := l.TailSince(4, 10)
	if len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("TailSince(4) = %+v, want seqs 5,6", evs)
	}
	if got := l.TailSince(4, 1); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("TailSince(4, max 1) = %+v, want just seq 6", got)
	}
	if snap := l.Snapshot(); len(snap.Events) != 6 || snap.Events[4].Seq != 5 || snap.Dropped != 0 {
		t.Fatalf("Snapshot = %+v, want all six retained", snap)
	}
}

func TestEventLogNilIsDisabled(t *testing.T) {
	var l *EventLog
	if seq := l.Append(Event{Type: EvLeaseExpired}); seq != 0 {
		t.Errorf("nil append returned %d", seq)
	}
	if snap := l.Snapshot(); l.Events() != nil || len(snap.Events) != 0 || snap.Dropped != 0 || l.Seq() != 0 {
		t.Error("nil event log leaked state")
	}
	var sb strings.Builder
	l.WriteText(&sb) // must not panic
}

func TestEventLogAssignsTimeAndRendersFields(t *testing.T) {
	l := NewEventLog(8)
	at := time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC)
	l.Append(Event{At: at, Type: EvOutputRehosted, Job: "job_0001_x", Task: "m3", Host: "node2", Cause: "re-hosted off node1"})
	l.Append(Event{Type: EvTrackerRevived, Host: "node1"})
	evs := l.Events()
	if !evs[0].At.Equal(at) {
		t.Errorf("explicit At was overwritten: %v", evs[0].At)
	}
	if evs[1].At.IsZero() {
		t.Error("zero At was not stamped")
	}
	s := evs[0].String()
	for _, want := range []string{"#1", EvOutputRehosted, "job=job_0001_x", "task=m3", "host=node2", `cause="re-hosted off node1"`} {
		if !strings.Contains(s, want) {
			t.Errorf("event text %q missing %q", s, want)
		}
	}
	dump := FormatEvents(evs)
	if !strings.Contains(dump, EvTrackerRevived) || strings.Count(dump, "\n") != 2 {
		t.Errorf("FormatEvents output unexpected:\n%s", dump)
	}
}
