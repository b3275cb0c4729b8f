// Package shuffle_test runs the same jobs across all three shuffle
// engines — vanilla HTTP, Hadoop-A, OSU-IB RDMA — and verifies they
// produce identical, valid results. This is the functional half of
// experiment E8: the engines differ in mechanism, never in outcome.
package shuffle_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/hadoopa"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/workload"
)

func engines() map[string]func() mapred.ShuffleEngine {
	return map[string]func() mapred.ShuffleEngine{
		"vanilla-http": func() mapred.ShuffleEngine { return httpshuffle.New() },
		"hadoop-a":     func() mapred.ShuffleEngine { return hadoopa.New() },
		"osu-ib-rdma":  func() mapred.ShuffleEngine { return core.New() },
	}
}

func engineConf() *config.Config {
	c := config.New()
	c.SetInt(config.KeyBlockSize, 64<<10)
	c.SetInt(config.KeyMapSlots, 2)
	c.SetInt(config.KeyReduceSlots, 2)
	c.SetInt(config.KeyRDMAPacketBytes, 8192)
	c.SetInt(config.KeyKVPairsPerPacket, 64)
	return c
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// runEngineTeraSort runs TeraSort on a fresh cluster with the given engine
// and returns the validated output checksum. It is also the
// input-immutability check: map tasks parse their splits in the DataNodes'
// stored blocks and every engine serves stored runs in place, so after the
// job the input must digest exactly as before and no replica may fail its
// CRC — a reader that wrote into a borrowed block would show in either.
func runEngineTeraSort(t *testing.T, mk func() mapred.ShuffleEngine, rows int64) workload.Checksum {
	t.Helper()
	c, err := mapred.NewCluster(4, engineConf(), mk())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", rows, 16<<10, 99)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := workload.SampleKeys(fs, paths, mapred.TeraInput, 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.TeraInput)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ts", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 6,
	}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatal(err)
	}
	if after, err := workload.ChecksumInput(fs, paths, mapred.TeraInput); err != nil || !after.Equal(want) {
		t.Fatalf("input changed under the job: %+v before, %+v after (err %v)", want, after, err)
	}
	if rep := fs.Fsck(); !rep.Healthy() || rep.CorruptReplicas != 0 {
		t.Fatalf("fsck after the job: %+v", rep)
	}
	return want
}

func TestAllEnginesProduceIdenticalTeraSort(t *testing.T) {
	var sums []workload.Checksum
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sums = append(sums, runEngineTeraSort(t, mk, 1500))
		})
	}
	for i := 1; i < len(sums); i++ {
		if !sums[i].Equal(sums[0]) {
			t.Fatalf("engines disagree: %+v vs %+v", sums[i], sums[0])
		}
	}
}

func TestAllEnginesSortVariableRecords(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			c, err := mapred.NewCluster(3, engineConf(), mk())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fs := c.FS()
			paths, err := workload.RandomWriter(fs, "/in", 120<<10, 48<<10, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := workload.ChecksumInput(fs, paths, mapred.RunInput{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunJob(ctxT(t), &mapred.Job{
				Name: "sort", Input: paths, Output: "/out", NumReduces: 4,
			}); err != nil {
				t.Fatal(err)
			}
			if err := workload.Validate(fs, "/out", kv.BytesComparator, want, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEngineCharacteristics(t *testing.T) {
	// The defining mechanism of each engine must be visible in counters.
	// Small packets force several chunk requests per partition: Hadoop-A
	// pays a tracker disk read per chunk, the OSU cache pays one per
	// partition — the disk-traffic asymmetry behind Figure 8.
	conf := engineConf()
	conf.SetInt(config.KeyKVPairsPerPacket, 8)
	conf.SetInt(config.KeyRDMAPacketBytes, 1024)
	type result struct{ counters map[string]int64 }
	results := map[string]result{}
	for name, mk := range engines() {
		c, err := mapred.NewCluster(3, conf, mk())
		if err != nil {
			t.Fatal(err)
		}
		fs := c.FS()
		paths, err := workload.TeraGen(fs, "/in", 2000, 16<<10, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunJob(ctxT(t), &mapred.Job{
			Name: "char", Input: paths, Output: "/out",
			InputFormat: mapred.TeraInput, NumReduces: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = result{res.Counters}
		c.Close()
	}
	if results["vanilla-http"].counters["shuffle.http.bytes"] == 0 {
		t.Error("vanilla engine moved no HTTP bytes")
	}
	if results["hadoop-a"].counters["shuffle.hadoopa.bytes"] == 0 {
		t.Error("hadoop-a moved no verbs bytes")
	}
	if results["osu-ib-rdma"].counters["shuffle.rdma.bytes"] == 0 {
		t.Error("osu engine moved no RDMA bytes")
	}
	// Hadoop-A has no cache, ever.
	if results["hadoop-a"].counters["cache.hits"] != 0 {
		t.Error("hadoop-a recorded cache hits")
	}
	// OSU caching cuts tracker disk reads below Hadoop-A's per-request
	// reads for the same job shape.
	osuReads := results["osu-ib-rdma"].counters["tracker.mapoutput.disk.reads"]
	hadoopAReads := results["hadoop-a"].counters["tracker.mapoutput.disk.reads"]
	if osuReads >= hadoopAReads {
		t.Errorf("OSU disk reads (%d) not below Hadoop-A (%d)", osuReads, hadoopAReads)
	}
	for name, r := range results {
		t.Logf("%s: disk reads=%d", name, r.counters["tracker.mapoutput.disk.reads"])
	}
}

func TestEngineNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, mk := range engines() {
		n := mk().Name()
		if seen[n] {
			t.Fatalf("duplicate engine name %s", n)
		}
		seen[n] = true
	}
}

func BenchmarkFunctionalEngines(b *testing.B) {
	// Functional-plane wall-clock comparison (E8): not the paper's
	// figure-scale numbers (those come from internal/sim), but the
	// relative ordering of real record movement through the three shuffle
	// paths on identical jobs.
	for name, mk := range engines() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := mapred.NewCluster(3, engineConf(), mk())
				if err != nil {
					b.Fatal(err)
				}
				fs := c.FS()
				paths, err := workload.TeraGen(fs, "/in", 3000, 32<<10, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := c.RunJob(context.Background(), &mapred.Job{
					Name: fmt.Sprintf("bench%d", i), Input: paths, Output: fmt.Sprintf("/out%d", i),
					InputFormat: mapred.TeraInput, NumReduces: 6,
				}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Close()
			}
		})
	}
}

// TestStreamingEnginesOrderEqualKeysByMap pins the order of records whose
// keys compare equal on the two engines that merge remote segments
// directly: by map id, then by emission order within the map — the order
// a stable merge of the segments in map order gives. Values therefore
// reach a Reducer in the same order on every run, whichever map finished
// first.
func TestStreamingEnginesOrderEqualKeysByMap(t *testing.T) {
	const maps, perMap = 6, 300
	for _, name := range []string{"hadoop-a", "osu-ib-rdma"} {
		t.Run(name, func(t *testing.T) {
			c, err := mapred.NewCluster(3, engineConf(), engines()[name]())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fs := c.FS()
			var inputs []string
			for m := 0; m < maps; m++ {
				// RunInput is not splittable: file m is map m's whole input.
				recs := make([]kv.Record, perMap)
				for i := range recs {
					key := fmt.Sprintf("k%02d", (i*7+m)%20) // shorter than a prefix
					if i%2 == 1 {
						key = fmt.Sprintf("a-long-shared-prefix-%02d", (i+m)%20)
					}
					recs[i] = kv.Record{Key: []byte(key), Value: []byte(fmt.Sprintf("m%d-%04d", m, i))}
				}
				path := fmt.Sprintf("/eq/in-%d", m)
				if err := fs.WriteFile(path, "", kv.WriteRun(recs)); err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, path)
			}
			if _, err := c.RunJob(ctxT(t), &mapred.Job{
				Name: "eq", Input: inputs, Output: "/eq/out", NumReduces: 3,
			}); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, p := range fs.List("/eq/out/") {
				data, err := fs.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := kv.NewRunReader(data)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := kv.Drain(rr)
				if err != nil {
					t.Fatal(err)
				}
				total += len(recs)
				for i := 1; i < len(recs); i++ {
					prev, cur := recs[i-1], recs[i]
					// "m<map>-<seq>" sorts as (map, seq).
					if string(prev.Key) == string(cur.Key) && string(prev.Value) > string(cur.Value) {
						t.Fatalf("%s: key %q: value %s before %s, want (map, emission) order", p, cur.Key, prev.Value, cur.Value)
					}
				}
			}
			if total != maps*perMap {
				t.Fatalf("output has %d records, want %d", total, maps*perMap)
			}
		})
	}
}
