// Package shuffle_test runs the same jobs across all three shuffle
// engines — vanilla HTTP, Hadoop-A, OSU-IB RDMA — and verifies they
// produce identical, valid results. This is the functional half of
// experiment E8: the engines differ in mechanism, never in outcome. The
// Hadoop-A tests at the end pin the two properties that engine is: no
// cache, count-driven packets.
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
	results := map[string]*mapred.JobResult{}
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
		results[name] = res
		c.Close()
	}
	http, ha, osu := results["vanilla-http"].Counters, results["hadoop-a"].Counters, results["osu-ib-rdma"].Counters
	if http["shuffle.http.bytes"] == 0 {
		t.Error("vanilla engine moved no HTTP bytes")
	}
	if ha["shuffle.rdma.bytes"] == 0 {
		t.Error("hadoop-a moved no verbs bytes")
	}
	if osu["shuffle.rdma.bytes"] == 0 {
		t.Error("osu engine moved no RDMA bytes")
	}
	// Hadoop-A has no cache, so nothing is ever served by manifest: every
	// packet is an eager response its responder read from disk.
	if ha["cache.hits"] != 0 || ha["shuffle.rdma.read.manifests"] != 0 {
		t.Errorf("hadoop-a served from a cache: cache.hits=%d read.manifests=%d",
			ha["cache.hits"], ha["shuffle.rdma.read.manifests"])
	}
	if reads, packets := ha["tracker.mapoutput.disk.reads"], ha["shuffle.rdma.packets"]; reads < packets {
		t.Errorf("hadoop-a: %d disk reads for %d packets, want one per packet at least", reads, packets)
	}
	// OSU's cache adopts a partition encoded into registered memory as its
	// map commits, with no disk read (D24); the prefetcher reads any other
	// partition once, and a request that misses pays one read, which its
	// demand re-cache reuses.
	res := results["osu-ib-rdma"]
	partitions, misses := int64(res.NumMaps*res.NumReduces), osu["cache.misses"]
	heapRuns := partitions - osu["cache.adopted"]
	if reads := osu["tracker.mapoutput.disk.reads"]; reads > heapRuns+misses {
		t.Errorf("OSU: %d disk reads, want at most %d partitions not adopted + %d misses", reads, heapRuns, misses)
	}
	// So OSU caching cuts tracker disk reads below Hadoop-A's per-request
	// reads for the same job shape.
	if osu["tracker.mapoutput.disk.reads"] >= ha["tracker.mapoutput.disk.reads"] {
		t.Errorf("OSU disk reads (%d) not below Hadoop-A (%d)", osu["tracker.mapoutput.disk.reads"], ha["tracker.mapoutput.disk.reads"])
	}
	for name, r := range results {
		t.Logf("%s: disk reads=%d packets=%d cache.misses=%d", name, r.Counters["tracker.mapoutput.disk.reads"],
			r.Counters["shuffle.rdma.packets"], r.Counters["cache.misses"])
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

// newHadoopACluster is a small cluster on the Hadoop-A engine.
func newHadoopACluster(t *testing.T, nodes int, conf *config.Config) *mapred.Cluster {
	t.Helper()
	if conf == nil {
		conf = config.New()
	}
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	c, err := mapred.NewCluster(nodes, conf, core.NewHadoopA())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestHadoopATeraSort(t *testing.T) {
	c := newHadoopACluster(t, 3, nil)
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 1500, 16<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	sample, _ := workload.SampleKeys(fs, paths, mapred.TeraInput, 100)
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 4))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := workload.ChecksumInput(fs, paths, mapred.TeraInput)
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ha-ts", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatal(err)
	}
	if res.Counters["shuffle.rdma.bytes"] == 0 {
		t.Fatal("no levitated-merge traffic")
	}
	// No cache, ever — caching is on by default, and still: every serve is
	// a disk read.
	if res.Counters["cache.hits"] != 0 || res.Counters["cache.prefetched"] != 0 {
		t.Fatalf("Hadoop-A must not cache: %v", res.Counters)
	}
}

func TestHadoopACountDrivenPacking(t *testing.T) {
	// With kvpairs.per.packet = 8 and 100-byte records, packets carry
	// ~8 records regardless of the RDMA packet size setting — the
	// size-oblivious fill §III-C.3 contrasts with the OSU design.
	conf := config.New()
	conf.SetInt(config.KeyKVPairsPerPacket, 8)
	conf.SetInt(config.KeyRDMAPacketBytes, 1<<20)
	c := newHadoopACluster(t, 2, conf)
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 800, 16<<10, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ha-pack", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := res.Counters["shuffle.rdma.packets"]
	bytes := res.Counters["shuffle.rdma.bytes"]
	if packets == 0 {
		t.Fatal("no packets")
	}
	meanPacket := float64(bytes) / float64(packets)
	// 8 records ≈ 8×103 encoded bytes; a size-aware packer would have
	// filled toward the 1 MB limit instead.
	if meanPacket > 2000 {
		t.Fatalf("mean packet %.0f bytes; count-driven packing should cap near 8 records", meanPacket)
	}
	// Count-driven packing needs many more packets: at least one per 8
	// records.
	if packets < 800/8 {
		t.Fatalf("packets = %d", packets)
	}
}

func TestHadoopAPerChunkDiskReads(t *testing.T) {
	// The defining deficiency (§III-C.1): every packet request reads the
	// map output from disk — tracker disk reads scale with packet count,
	// not partition count.
	conf := config.New()
	conf.SetInt(config.KeyKVPairsPerPacket, 16)
	c := newHadoopACluster(t, 2, conf)
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", 2000, 32<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ha-disk", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := res.Counters["tracker.mapoutput.disk.reads"]
	partitions := int64(res.NumMaps * res.NumReduces)
	if reads < partitions*3 {
		t.Fatalf("disk reads %d for %d partitions; expected per-chunk disk access", reads, partitions)
	}
}

func TestHadoopAEmptyPartitions(t *testing.T) {
	c := newHadoopACluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/e/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: []byte("v")}}))
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ha-empty", Input: []string{"/e/in"}, Output: "/e/out", NumReduces: 6,
	}); err != nil {
		t.Fatal(err)
	}
}
