package faultinject_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/obs"
)

// fetchEvents GETs /events.json from the cluster's observability
// endpoint — the same consumer path an operator's tooling would use.
func fetchEvents(t *testing.T, addr string) obs.EventsSnapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/events.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events.json status %d", resp.StatusCode)
	}
	var snap obs.EventsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/events.json does not decode: %v", err)
	}
	return snap
}

// TestNodeDeathEmitsOrderedEventSequence kills a tracker mid-shuffle
// and asserts the scheduler's structured event log tells the story in
// causal order over the HTTP endpoint: the heartbeat expiry, then the
// decommission, then the dead node's map output re-hosted on a
// survivor — plus at least one task attempt requeued with the node
// death as its recorded cause.
func TestNodeDeathEmitsOrderedEventSequence(t *testing.T) {
	sched := chaos.Wrap(core.New(), nil, chaos.Event{At: 2, Kind: chaos.KillTracker})
	conf := nodeDeathConf()
	conf.Set(config.KeyObsHTTPAddr, "127.0.0.1:0")
	c, err := mapred.NewCluster(4, conf, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sched.SetKiller(c)

	// A mapper throttled to a few milliseconds per task: map-output
	// announcements ride heartbeats (every expiry/4), so a kill triggered
	// by the second announced output lands at the first beat — and the
	// throttle keeps the map phase mid-flight at that point, so the
	// victim has running attempts to cancel (the "retry" leg of the
	// asserted sequence) and completed outputs to lose (the "re-host"
	// leg). A plain TeraSort drains its whole map queue inside one beat
	// window, leaving nothing in flight for the kill to catch.
	fs := c.FS()
	var paths []string
	for i := 0; i < 80; i++ {
		p := fmt.Sprintf("/evseq/in/%03d", i)
		rec := kv.Record{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("v")}
		if err := fs.WriteFile(p, "", kv.WriteRun([]kv.Record{rec})); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "nodedeath-events", Input: paths, Output: "/evseq/out",
		NumReduces: 4,
		Mapper: func(k, v []byte, emit func(k, v []byte)) error {
			time.Sleep(5 * time.Millisecond)
			emit(k, v)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	sched.Wait()
	if kills := sched.Kills(); len(kills) != 1 {
		t.Fatalf("kills = %v, want exactly one", kills)
	}
	waitCounter(t, c, "mapred.tasktracker.decommissioned", 1)

	// The rehost runs in its own goroutine off the decommission watch;
	// give it the same post-job grace the counters get.
	var snap obs.EventsSnapshot
	seqOf := map[string]int64{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap = fetchEvents(t, c.ObsAddr())
		seqOf = map[string]int64{}
		for _, e := range snap.Events {
			if _, seen := seqOf[e.Type]; !seen {
				seqOf[e.Type] = e.Seq // first occurrence
			}
		}
		if _, ok := seqOf[obs.EvOutputRehosted]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s event:\n%s", obs.EvOutputRehosted, obs.FormatEvents(snap.Events))
		}
		time.Sleep(5 * time.Millisecond)
	}

	expired, ok1 := seqOf[obs.EvHeartbeatExpired]
	decomm, ok2 := seqOf[obs.EvTrackerDecommissioned]
	rehosted := seqOf[obs.EvOutputRehosted]
	if !ok1 || !ok2 {
		t.Fatalf("missing expiry/decommission events:\n%s", obs.FormatEvents(snap.Events))
	}
	if !(expired < decomm && decomm < rehosted) {
		t.Fatalf("event order expired=#%d decommissioned=#%d rehosted=#%d, want strictly increasing:\n%s",
			expired, decomm, rehosted, obs.FormatEvents(snap.Events))
	}

	deathRetries := 0
	for _, e := range snap.Events {
		if e.Type == obs.EvAttemptRetried && e.Cause == "node death" {
			deathRetries++
			if e.Task == "" || e.Host == "" {
				t.Fatalf("node-death retry missing task/host: %+v", e)
			}
		}
	}
	if deathRetries == 0 {
		t.Fatalf("no attempt retried with cause \"node death\":\n%s", obs.FormatEvents(snap.Events))
	}
}
