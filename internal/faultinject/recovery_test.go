package faultinject_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/workload"
)

func engines() map[string]func() mapred.ShuffleEngine {
	return map[string]func() mapred.ShuffleEngine{
		"vanilla-http": func() mapred.ShuffleEngine { return httpshuffle.New() },
		"hadoop-a":     func() mapred.ShuffleEngine { return core.NewHadoopA() },
		"osu-ib-rdma":  func() mapred.ShuffleEngine { return core.New() },
	}
}

func testConf() *config.Config {
	c := config.New()
	c.SetInt(config.KeyBlockSize, 64<<10)
	c.SetInt(config.KeyMapSlots, 2)
	c.SetInt(config.KeyReduceSlots, 2)
	c.SetInt(config.KeyRDMAPacketBytes, 4096)
	c.SetInt(config.KeyKVPairsPerPacket, 32)
	return c
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// runWithFaults runs a TeraSort with the given maps' outputs destroyed
// and validates the result.
func runWithFaults(t *testing.T, mk func() mapred.ShuffleEngine, loseMaps []int) *mapred.JobResult {
	t.Helper()
	var events []chaos.Event
	for _, m := range loseMaps {
		events = append(events, chaos.Event{Kind: chaos.LoseOutput, Map: m})
	}
	c, err := mapred.NewCluster(3, testConf(), chaos.Wrap(mk(), nil, events...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 2000, 16<<10, 77)
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
		Name: "recover", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(loseMaps) > 0 && res.Counters["chaos.outputs.lost"] == 0 {
		t.Fatal("fault injection never fired")
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatalf("output invalid after recovery: %v", err)
	}
	return res
}

func TestRecoveryAllEngines(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			res := runWithFaults(t, mk, []int{0, 2})
			if res.Counters["map.tasks.recovered"] == 0 {
				t.Fatalf("no maps recovered: %v", res.Counters)
			}
			if res.Counters["shuffle.fetch.failures"] == 0 {
				t.Fatalf("no fetch failures recorded: %v", res.Counters)
			}
			if res.Counters["chaos.outputs.lost"] != 2 {
				t.Fatalf("injections: %v", res.Counters)
			}
		})
	}
}

func TestRecoveryManyLostMaps(t *testing.T) {
	// Lose half the maps — recovery must still converge to a valid sort.
	res := runWithFaults(t, func() mapred.ShuffleEngine { return core.New() }, []int{0, 1, 2, 3, 4, 5})
	if res.Counters["map.tasks.recovered"] < 3 {
		t.Fatalf("recovered = %d", res.Counters["map.tasks.recovered"])
	}
}

func TestNoFaultsNoRecovery(t *testing.T) {
	res := runWithFaults(t, func() mapred.ShuffleEngine { return core.New() }, nil)
	if res.Counters["map.tasks.recovered"] != 0 || res.Counters["shuffle.fetch.failures"] != 0 {
		t.Fatalf("phantom recovery: %v", res.Counters)
	}
}

func TestRecoveryExhaustionFailsJob(t *testing.T) {
	// Map 0 loses its original output and every re-execution the budget
	// allows.
	var events []chaos.Event
	for range mapred.MaxMapRecoveries + 1 {
		events = append(events, chaos.Event{Kind: chaos.LoseOutput, Map: 0})
	}
	c, err := mapred.NewCluster(3, testConf(), chaos.Wrap(core.New(), nil, events...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 800, 16<<10, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunJob(ctxT(t), &mapred.Job{
		Name: "doomed", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, NumReduces: 2,
	})
	if err == nil {
		t.Fatal("job succeeded despite unrecoverable map output")
	}
	// The failure must be diagnosable from the error alone: which map
	// exhausted its MaxMapRecoveries budget, and where it was last
	// hosted when the fetches kept failing.
	if !strings.Contains(err.Error(), "map 0 unrecoverable") {
		t.Fatalf("exhaustion error should name the doomed map: %v", err)
	}
	if !strings.Contains(err.Error(), "last host node") {
		t.Fatalf("exhaustion error should name the last serving host: %v", err)
	}
}
