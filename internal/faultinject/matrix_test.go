package faultinject_test

import (
	"fmt"
	"testing"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// matrixRun executes one TeraSort on a 3-node cluster with the RDMA
// engine under the given transport injector and events, validating the
// sorted output byte-for-byte against the input checksum.
func matrixRun(t *testing.T, depth int64, inj *chaos.Injector, events []chaos.Event) *mapred.JobResult {
	t.Helper()
	conf := testConf()
	conf.SetInt(config.KeyParallelCopies, depth)
	// Headroom above the chaos fault caps below, so a run that should
	// self-heal never exhausts a request's budget by bad luck.
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	c, err := mapred.NewCluster(3, conf, chaos.Wrap(core.New(), inj, events...))
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
	return res
}

// TestFaultMatrix crosses the three failure modes the self-healing
// transport must survive with the two interesting pipeline depths. The
// invariant throughout: output equality, and RecoverMap fires only when
// the data is actually gone or the serving side is truly dead — never
// for a transient fabric fault within the retry budget.
func TestFaultMatrix(t *testing.T) {
	type tc struct {
		name   string
		inj    func() *chaos.Injector
		events []chaos.Event
		check  func(t *testing.T, res *mapred.JobResult, inj *chaos.Injector)
	}
	cases := []tc{
		{
			// Transient QP severs, strictly fewer than the retry budget:
			// the copiers must reconnect and re-issue; map re-execution
			// would be a correctness bug here.
			name: "transient-qp-drop",
			inj: func() *chaos.Injector {
				return chaos.New(chaos.Config{Seed: 11, SeverProb: 1, MaxFaults: 3})
			},
			check: func(t *testing.T, res *mapred.JobResult, inj *chaos.Injector) {
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
			// then re-execution on a live node. Killing a fixed host
			// before the job instead would race map scheduling: one
			// tracker's slots can drain the whole split queue, leaving the
			// victim with no output anyone needs.
			name: "dead-tracker",
			inj:  func() *chaos.Injector { return chaos.New(chaos.Config{}) },
			// Device names equal host names, so KillPeer refuses every
			// dial toward the announcing tracker's device.
			events: []chaos.Event{{At: 1, Kind: chaos.KillPeer}},
			check: func(t *testing.T, res *mapred.JobResult, inj *chaos.Injector) {
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
			name:   "lost-map-output",
			inj:    func() *chaos.Injector { return nil },
			events: []chaos.Event{{Kind: chaos.LoseOutput, Map: 0}, {Kind: chaos.LoseOutput, Map: 2}},
			check: func(t *testing.T, res *mapred.JobResult, _ *chaos.Injector) {
				if got := res.Counters["chaos.outputs.lost"]; got != 2 {
					t.Fatalf("injections fired = %d, want 2", got)
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
			// Both at once, through ONE schedule: transport severs ride
			// the retry budget while a lost output still escalates.
			name: "composed-loss-and-severs",
			inj: func() *chaos.Injector {
				return chaos.New(chaos.Config{Seed: 13, SeverProb: 1, MaxFaults: 2})
			},
			events: []chaos.Event{{Kind: chaos.LoseOutput, Map: 1}},
			check: func(t *testing.T, res *mapred.JobResult, inj *chaos.Injector) {
				if lost := res.Counters["chaos.outputs.lost"]; lost != 1 || inj.Faults() == 0 {
					t.Fatalf("composition incomplete: lost=%d faults=%d", lost, inj.Faults())
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
				inj := c.inj()
				c.check(t, matrixRun(t, depth, inj, c.events), inj)
			})
		}
	}
}
