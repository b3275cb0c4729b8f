package mapred

import (
	"testing"
	"time"

	"rdmamr/internal/obs"
)

// TestHeartbeatHistogramsObserveIntervalAndRTT pins the telemetry the
// beat path records: each live beat is counted in
// mapred.tasktracker.heartbeats and its spacing (time since the
// tracker's previous beat) observed in
// mapred.tasktracker.heartbeat.interval. Driven on the fake clock so
// the sum is exact.
func TestHeartbeatHistogramsObserveIntervalAndRTT(t *testing.T) {
	lv, clk, _ := testMonitor(t, []string{"node0", "node1"}, time.Second)
	reg := obs.NewRegistry()
	lv.hbCount = reg.Counter("mapred.tasktracker.heartbeats")
	lv.hbInterval = reg.Histogram("mapred.tasktracker.heartbeat.interval")

	// lastBeat starts at construction time, so the first beat observes a
	// real interval too: 40ms, then 60ms.
	clk.advance(40 * time.Millisecond)
	lv.beat(0)
	clk.advance(60 * time.Millisecond)
	lv.beat(0)

	iv := lv.hbInterval.Snapshot()
	if iv.Count != 2 || iv.Sum != 100*time.Millisecond {
		t.Fatalf("interval histogram = %d obs / %v sum, want 2 / 100ms", iv.Count, iv.Sum)
	}
	if n := lv.hbCount.Get(); n != 2 {
		t.Fatalf("heartbeats = %d, want 2", n)
	}

	// A killed tracker can't beat: suppressed beats are dropped before
	// they are counted or observed.
	if err := lv.suppress(1); err != nil {
		t.Fatalf("suppress: %v", err)
	}
	clk.advance(40 * time.Millisecond)
	lv.beat(1)
	if got := lv.hbInterval.Snapshot().Count; got != 2 {
		t.Fatalf("suppressed beat observed an interval (count %d)", got)
	}
	if n := lv.hbCount.Get(); n != 2 {
		t.Fatalf("suppressed beat counted: heartbeats = %d", n)
	}
}
