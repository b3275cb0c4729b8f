package faultinject_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/faultinject"
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
	fi := faultinject.Wrap(mk(), loseMaps...)
	c, err := mapred.NewCluster(3, testConf(), fi)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 2000, 16<<10, 77)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := workload.SampleKeys(fs, paths, mapred.TeraInput, 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.TeraInput)
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
	if len(loseMaps) > 0 && fi.LostCount() == 0 {
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
			if res.Counters["faultinject.outputs.lost"] != 2 {
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

// persistentLoss wraps an engine so a map's output is destroyed on EVERY
// announcement, exhausting recovery attempts.
type persistentLoss struct {
	mapred.ShuffleEngine
	victim int
}

func (p *persistentLoss) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	inner, err := p.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &persistentServer{inner: inner, tt: tt, victim: p.victim}, nil
}

type persistentServer struct {
	inner  mapred.TrackerServer
	tt     *mapred.TaskTracker
	victim int
}

func (s *persistentServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	if mapID == s.victim {
		for r := 0; r < job.NumReduces; r++ {
			_ = s.tt.Store().Delete(mapred.MapOutputKey(job.ID, mapID, r))
		}
	}
	s.inner.MapOutputReady(job, mapID)
}

func (s *persistentServer) JobComplete(job mapred.JobInfo) { s.inner.JobComplete(job) }
func (s *persistentServer) Close() error                   { return s.inner.Close() }

func TestRecoveryExhaustionFailsJob(t *testing.T) {
	c, err := mapred.NewCluster(3, testConf(), &persistentLoss{ShuffleEngine: core.New(), victim: 0})
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
