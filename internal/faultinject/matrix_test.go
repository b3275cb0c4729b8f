package faultinject_test

import (
	"fmt"
	"sync"
	"testing"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/faultinject"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// matrixRun executes one TeraSort on a 3-node cluster with the RDMA
// engine wrapped in the given fault options, validating the sorted
// output byte-for-byte against the input checksum. wrap, when non-nil,
// interposes one more engine layer (e.g. a targeted tracker kill).
func matrixRun(t *testing.T, depth int64, opts faultinject.Options, wrap func(mapred.ShuffleEngine) mapred.ShuffleEngine) (*mapred.JobResult, *faultinject.Engine) {
	t.Helper()
	conf := testConf()
	conf.SetInt(config.KeyParallelCopies, depth)
	// Headroom above the chaos fault caps below, so a run that should
	// self-heal never exhausts a request's budget by bad luck.
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	fi := faultinject.WrapOptions(core.New(), opts)
	eng := mapred.ShuffleEngine(fi)
	if wrap != nil {
		eng = wrap(eng)
	}
	c, err := mapred.NewCluster(3, conf, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 1200, 16<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	sample, want, err := workload.ScanInput(fs, paths, mapred.TeraInput, 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "matrix", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatalf("output invalid under faults: %v", err)
	}
	return res, fi
}

// killOnFirstOutput kills the serving side of whichever host FIRST
// announces a map output — by construction that host holds data some
// reducer will need, so the kill is always load-bearing. Killing a
// fixed host before the job instead would race map scheduling: these
// in-memory maps finish so fast that one tracker's slot workers can
// drain the whole split queue, leaving the chosen victim with zero
// outputs and a dead peer nobody needs — which proves nothing about
// recovery.
type killOnFirstOutput struct {
	mapred.ShuffleEngine
	inj  *chaos.Injector
	once sync.Once
}

func (k *killOnFirstOutput) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	inner, err := k.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &killOnOutputServer{TrackerServer: inner, k: k, host: tt.Host()}, nil
}

type killOnOutputServer struct {
	mapred.TrackerServer
	k    *killOnFirstOutput
	host string
}

func (s *killOnOutputServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	s.k.once.Do(func() { s.k.inj.KillPeer(s.host) })
	s.TrackerServer.MapOutputReady(job, mapID)
}

// TestFaultMatrix crosses the three failure modes the self-healing
// transport must survive with the two interesting pipeline depths. The
// invariant throughout: output equality, and RecoverMap fires only when
// the data is actually gone or the serving side is truly dead — never
// for a transient fabric fault within the retry budget.
func TestFaultMatrix(t *testing.T) {
	type tc struct {
		name string
		opts func() (faultinject.Options, *chaos.Injector)
		// wrap interposes an extra engine layer around the fault engine
		// (e.g. a targeted tracker kill keyed to map-output placement).
		wrap  func(eng mapred.ShuffleEngine, inj *chaos.Injector) mapred.ShuffleEngine
		check func(t *testing.T, res *mapred.JobResult, fi *faultinject.Engine, inj *chaos.Injector)
	}
	cases := []tc{
		{
			// Transient QP severs, strictly fewer than the retry budget:
			// the copiers must reconnect and re-issue; map re-execution
			// would be a correctness bug here.
			name: "transient-qp-drop",
			opts: func() (faultinject.Options, *chaos.Injector) {
				inj := chaos.New(chaos.Config{Seed: 11, SeverProb: 1, MaxFaults: 3})
				return faultinject.Options{Transport: inj}, inj
			},
			check: func(t *testing.T, res *mapred.JobResult, _ *faultinject.Engine, inj *chaos.Injector) {
				if inj.Faults() == 0 {
					t.Fatal("no faults injected; nothing proven")
				}
				if res.Counters["map.tasks.recovered"] != 0 {
					t.Fatalf("maps re-executed for a transient fabric fault: %v", res.Counters)
				}
				if res.Counters["shuffle.rdma.reconnects"] == 0 {
					t.Fatalf("no reconnects under severed QPs: %v", res.Counters)
				}
			},
		},
		{
			// A tracker whose serving side dies as soon as it holds map
			// output: that output is unreachable, so escalation to
			// RecoverMap is the CORRECT behaviour — budget exhaustion,
			// then re-execution on a live node.
			name: "dead-tracker",
			opts: func() (faultinject.Options, *chaos.Injector) {
				inj := chaos.New(chaos.Config{})
				return faultinject.Options{Transport: inj}, inj
			},
			wrap: func(eng mapred.ShuffleEngine, inj *chaos.Injector) mapred.ShuffleEngine {
				// Device names equal host names, so KillPeer(host) refuses
				// every dial toward the announcing tracker's device.
				return &killOnFirstOutput{ShuffleEngine: eng, inj: inj}
			},
			check: func(t *testing.T, res *mapred.JobResult, _ *faultinject.Engine, inj *chaos.Injector) {
				_, _, _, _, refusals := inj.Stats()
				if refusals == 0 {
					t.Fatalf("no dials toward the dead tracker were refused: %v", res.Counters)
				}
				if res.Counters["map.tasks.recovered"] == 0 {
					t.Fatalf("no maps recovered off the dead tracker (refusals=%d): %v", refusals, res.Counters)
				}
				if res.Counters["shuffle.fetch.failures"] == 0 {
					t.Fatalf("no budget-exhaustion escalations recorded: %v", res.Counters)
				}
				if res.Counters["shuffle.rdma.blacklist.trips"] == 0 {
					t.Fatalf("dead tracker never tripped the blacklist: %v", res.Counters)
				}
			},
		},
		{
			// The classic lost-intermediate-data case: the fabric is
			// perfect, the data is gone — RecoverMap is the only fix.
			name: "lost-map-output",
			opts: func() (faultinject.Options, *chaos.Injector) {
				return faultinject.Options{LoseMapIDs: []int{0, 2}}, nil
			},
			check: func(t *testing.T, res *mapred.JobResult, fi *faultinject.Engine, _ *chaos.Injector) {
				if fi.LostCount() != 2 {
					t.Fatalf("injections fired = %d, want 2", fi.LostCount())
				}
				if res.Counters["map.tasks.recovered"] == 0 {
					t.Fatalf("lost outputs never recovered: %v", res.Counters)
				}
				if res.Counters["shuffle.rdma.reconnects"] != 0 {
					t.Fatalf("reconnects on a healthy fabric: %v", res.Counters)
				}
			},
		},
		{
			// Both at once, through ONE wrapper: transport severs ride
			// the retry budget while a lost output still escalates.
			name: "composed-loss-and-severs",
			opts: func() (faultinject.Options, *chaos.Injector) {
				inj := chaos.New(chaos.Config{Seed: 13, SeverProb: 1, MaxFaults: 2})
				return faultinject.Options{LoseMapIDs: []int{1}, Transport: inj}, inj
			},
			check: func(t *testing.T, res *mapred.JobResult, fi *faultinject.Engine, inj *chaos.Injector) {
				if fi.LostCount() != 1 || inj.Faults() == 0 {
					t.Fatalf("composition incomplete: lost=%d faults=%d", fi.LostCount(), inj.Faults())
				}
				if res.Counters["map.tasks.recovered"] == 0 {
					t.Fatalf("lost output never recovered: %v", res.Counters)
				}
				if res.Counters["shuffle.rdma.reconnects"] == 0 {
					t.Fatalf("severed QPs never reconnected: %v", res.Counters)
				}
			},
		},
	}
	for _, depth := range []int64{1, 8} {
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/depth%d", c.name, depth), func(t *testing.T) {
				opts, inj := c.opts()
				var wrap func(mapred.ShuffleEngine) mapred.ShuffleEngine
				if c.wrap != nil {
					wrap = func(eng mapred.ShuffleEngine) mapred.ShuffleEngine { return c.wrap(eng, inj) }
				}
				res, fi := matrixRun(t, depth, opts, wrap)
				c.check(t, res, fi, inj)
			})
		}
	}
}
