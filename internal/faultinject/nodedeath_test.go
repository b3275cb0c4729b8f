package faultinject_test

import (
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// nodeDeathConf shrinks the heartbeat expiry so the scheduler detects a
// killed tracker within the test's lifetime, and gives the transport
// budget headroom so self-healing never fails by bad luck. 250 ms keeps
// detection sub-second while staying above the goroutine-scheduling
// jitter of a loaded race-detector run — below that, live trackers
// expire spuriously and their reducers burn retry budgets on stale
// death verdicts faster than the sweep can re-admit the hosts.
func nodeDeathConf() *config.Config {
	conf := testConf()
	conf.SetInt(config.KeyTrackerExpiry, 250)
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	return conf
}

// runNodeDeathTeraSort runs one checksum-validated TeraSort on c. The
// ordered validation against the input checksum is the byte-identical
// guarantee: same records, globally sorted, nothing lost or duplicated.
func runNodeDeathTeraSort(t *testing.T, c *mapred.Cluster, name string, rows int64, seed int64, reduces int) *mapred.JobResult {
	t.Helper()
	fs := c.FS()
	inDir, outDir := "/"+name+"/in", "/"+name+"/out"
	paths, err := workload.TeraGen(fs, inDir, rows, 16<<10, seed)
	if err != nil {
		t.Fatal(err)
	}
	sample, want, err := workload.ScanInput(fs, paths, mapred.TeraInput, 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, reduces))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: name, Input: paths, Output: outDir,
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: reduces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, outDir, kv.BytesComparator, want, true); err != nil {
		t.Fatalf("output invalid after node death: %v", err)
	}
	return res
}

// waitCounter polls a cluster counter until it reaches at least want —
// for events (like heartbeat expiry) that fire on the sweeper's clock,
// possibly after the job itself has finished.
func waitCounter(t *testing.T, c *mapred.Cluster, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Counters().Get(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", name, want, c.Counters().Get(name))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertRetryCountersConsistent checks the attempt accounting invariant:
// every retry corresponds to a recorded failure, for both task kinds.
func assertRetryCountersConsistent(t *testing.T, counters map[string]int64) {
	t.Helper()
	for _, kind := range []string{"map", "reduce"} {
		failed := counters[kind+".task.attempts.failed"]
		retried := counters[kind+".task.attempts.retried"]
		if retried > failed {
			t.Fatalf("%s retries (%d) exceed failures (%d): %v", kind, retried, failed, counters)
		}
	}
}

// TestNodeDeathMidShuffleNoRevive is the headline acceptance case: a
// seeded schedule kills whichever tracker announces the second map
// output — a node that by construction holds live map output reducers
// need — and never revives it. The job must still complete with
// byte-identical TeraSort output, and the scheduler must detect the
// death through missed heartbeats.
func TestNodeDeathMidShuffleNoRevive(t *testing.T) {
	sched := chaos.Wrap(core.New(), nil, chaos.Event{At: 2, Kind: chaos.KillTracker})
	c, err := mapred.NewCluster(4, nodeDeathConf(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sched.SetKiller(c)

	res := runNodeDeathTeraSort(t, c, "nodedeath", 2000, 77, 4)
	sched.Wait()

	kills := sched.Kills()
	if len(kills) != 1 {
		t.Fatalf("kills = %v, want exactly one", kills)
	}
	// The heartbeat detector must declare the node dead (the sweep may
	// fire after the job finished recovering around the death).
	waitCounter(t, c, "mapred.tasktracker.expired", 1)
	waitCounter(t, c, "mapred.tasktracker.decommissioned", 1)
	// The dead node's announced output was unreachable, so at least one
	// map re-executed on a survivor.
	if res.Counters["map.tasks.recovered"] == 0 {
		t.Fatalf("no maps recovered off the dead node %v: %v", kills, res.Counters)
	}
	assertRetryCountersConsistent(t, res.Counters)
}

// TestNodeDeathComposedWithTransportFaults layers all three failure
// modes through one stack: a scripted node death, a one-shot lost map
// output, and seeded transport severs — the full chaos composition the
// `make chaos` gate runs.
func TestNodeDeathComposedWithTransportFaults(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 17, SeverProb: 1, MaxFaults: 2})
	sched := chaos.Wrap(core.New(), inj,
		chaos.Event{At: 3, Kind: chaos.KillTracker}, chaos.Event{Kind: chaos.LoseOutput, Map: 1})
	c, err := mapred.NewCluster(4, nodeDeathConf(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sched.SetKiller(c)

	res := runNodeDeathTeraSort(t, c, "nodedeath-composed", 2000, 31, 4)
	sched.Wait()

	if len(sched.Kills()) != 1 {
		t.Fatalf("kills = %v", sched.Kills())
	}
	if lost := res.Counters["chaos.outputs.lost"]; lost != 1 {
		t.Fatalf("lost outputs = %d, want 1", lost)
	}
	if inj.Faults() == 0 {
		t.Fatal("no transport faults injected; composition not exercised")
	}
	waitCounter(t, c, "mapred.tasktracker.expired", 1)
	if res.Counters["map.tasks.recovered"] == 0 {
		t.Fatalf("nothing recovered under composed faults: %v", res.Counters)
	}
	assertRetryCountersConsistent(t, res.Counters)
}

// announceRecorder records which host announced map outputs for which
// job — the evidence that a revived node actually took new work.
type announceRecorder struct {
	mapred.ShuffleEngine
	mu    sync.Mutex
	byJob map[string]map[string]bool // jobID -> announcing hosts
}

func (r *announceRecorder) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	inner, err := r.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &recordingServer{TrackerServer: inner, r: r, host: tt.Host()}, nil
}

func (r *announceRecorder) announced(jobID, host string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byJob[jobID][host]
}

type recordingServer struct {
	mapred.TrackerServer
	r    *announceRecorder
	host string
}

func (s *recordingServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	s.r.mu.Lock()
	if s.r.byJob == nil {
		s.r.byJob = make(map[string]map[string]bool)
	}
	if s.r.byJob[job.ID] == nil {
		s.r.byJob[job.ID] = make(map[string]bool)
	}
	s.r.byJob[job.ID][s.host] = true
	s.r.mu.Unlock()
	s.TrackerServer.MapOutputReady(job, mapID)
}

// TestNodeDeathReviveRejoins kills a tracker during the first job, then
// restarts it and runs a second job: the revived node must rejoin the
// heartbeat ring and serve map outputs again.
func TestNodeDeathReviveRejoins(t *testing.T) {
	sched := chaos.Wrap(core.New(), nil, chaos.Event{At: 2, Kind: chaos.KillTracker})
	rec := &announceRecorder{ShuffleEngine: sched}
	c, err := mapred.NewCluster(3, nodeDeathConf(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sched.SetKiller(c)

	runNodeDeathTeraSort(t, c, "revive-j1", 1200, 5, 3)
	sched.Wait()
	kills := sched.Kills()
	if len(kills) != 1 {
		t.Fatalf("kills = %v, want exactly one", kills)
	}
	victim := kills[0]

	// Restart the node: the cluster starts a fresh shuffle server, so
	// dials succeed again, and heartbeats resume.
	if err := c.ReviveTracker(victim); err != nil {
		t.Fatalf("revive %s: %v", victim, err)
	}
	if got := c.Counters().Get("mapred.tasktracker.revived"); got != 1 {
		t.Fatalf("mapred.tasktracker.revived = %d, want 1", got)
	}

	res2 := runNodeDeathTeraSort(t, c, "revive-j2", 2500, 6, 3)
	if !rec.announced(res2.JobID, victim) {
		t.Fatalf("revived node %s announced no map outputs in job 2 (job %s)", victim, res2.JobID)
	}
	if res2.Counters["mapred.tasktracker.expired"] != 0 {
		t.Fatalf("revived node re-expired during job 2: %v", res2.Counters)
	}
}
