package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/workload"
)

func rdmaConf() *config.Config {
	c := config.New()
	c.SetInt(config.KeyBlockSize, 64<<10)
	c.SetBool(config.KeyRDMAEnabled, true)
	c.SetInt(config.KeyMapSlots, 2)
	c.SetInt(config.KeyReduceSlots, 2)
	c.SetInt(config.KeyRDMAPacketBytes, 4096) // small packets to force chunking
	c.SetInt(config.KeyKVPairsPerPacket, 32)
	return c
}

func newRDMACluster(t *testing.T, nodes int, conf *config.Config) *mapred.Cluster {
	t.Helper()
	if conf == nil {
		conf = rdmaConf()
	}
	c, err := mapred.NewCluster(nodes, conf, core.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func runTeraSort(t *testing.T, c *mapred.Cluster, rows int64, reduces int) *mapred.JobResult {
	t.Helper()
	return runTeraSortNamed(t, c, fmt.Sprintf("terasort-%d-%d", rows, reduces), rows, reduces)
}

// runTeraSortNamed is runTeraSort under a job name of the caller's, so one
// cluster can run the same shape twice.
func runTeraSortNamed(t *testing.T, c *mapred.Cluster, name string, rows int64, reduces int) *mapred.JobResult {
	t.Helper()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/"+name+"/in", rows, 16<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := workload.SampleKeys(fs, paths, mapred.TeraInput, 200)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, reduces))
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.TeraInput)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: name, Input: paths, Output: "/" + name + "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: reduces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/"+name+"/out", kv.BytesComparator, want, true); err != nil {
		t.Fatalf("TeraValidate: %v", err)
	}
	return res
}

func TestRDMATeraSortEndToEnd(t *testing.T) {
	c := newRDMACluster(t, 4, nil)
	res := runTeraSort(t, c, 2000, 8)
	if res.Counters["shuffle.rdma.bytes"] == 0 {
		t.Fatal("no RDMA shuffle traffic")
	}
	if res.Counters["shuffle.rdma.packets"] == 0 {
		t.Fatal("no RDMA packets")
	}
	// Chunking must be real: with 4 KB packets and ~200 KB of map output,
	// many packets are required.
	if res.Counters["shuffle.rdma.packets"] < 20 {
		t.Fatalf("suspiciously few packets: %d", res.Counters["shuffle.rdma.packets"])
	}
}

// TestZeroCopyAblationBitForBit: the same seeded TeraSort executed with
// the cache on (resident partitions move by manifest + READ, no responder
// copy) and off (every chunk staged and RDMA-written) must produce
// byte-identical output files and move the same number of shuffle bytes.
// Caching is the only switch left that decides which half of the fetch
// protocol a request takes, so any divergence means the two halves put
// different bytes on the wire.
func TestZeroCopyAblationBitForBit(t *testing.T) {
	outputs := make(map[bool]map[string][]byte)
	moved := make(map[bool]int64)
	for _, caching := range []bool{true, false} {
		conf := rdmaConf()
		conf.SetBool(config.KeyCachingEnabled, caching)
		c := newRDMACluster(t, 3, conf)
		res := runTeraSort(t, c, 1500, 6)
		if caching && res.Counters["shuffle.rdma.zerocopy.hits"] == 0 {
			t.Fatal("with the cache on no chunk was READ from cache memory")
		}
		if !caching && (res.Counters["shuffle.rdma.zerocopy.hits"] != 0 || res.Counters["shuffle.rdma.read.manifests"] != 0) {
			t.Fatalf("with the cache off a manifest was served: %v", res.Counters)
		}
		if n := res.Counters["shuffle.rdma.stage.outstanding"]; n != 0 {
			t.Fatalf("caching=%v: %d staging regions leaked", caching, n)
		}
		moved[caching] = res.Counters["shuffle.rdma.bytes"]
		if got := res.Counters["shuffle.rdma.recv.bytes"]; got != moved[caching] {
			t.Fatalf("caching=%v: shuffle.rdma.bytes = %d, reducers received %d", caching, moved[caching], got)
		}
		files := make(map[string][]byte)
		fs := c.FS()
		for _, path := range fs.List("/terasort-1500-6/out") {
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = data
		}
		if len(files) == 0 {
			t.Fatal("no output files")
		}
		outputs[caching] = files
	}
	if moved[true] != moved[false] || moved[true] == 0 {
		t.Fatalf("shuffle.rdma.bytes = %d with the cache on, %d off", moved[true], moved[false])
	}
	on, off := outputs[true], outputs[false]
	if len(on) != len(off) {
		t.Fatalf("output file counts differ: %d vs %d", len(on), len(off))
	}
	for path, want := range off {
		got, ok := on[path]
		if !ok {
			t.Fatalf("cache-on run missing output file %s", path)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("output %s differs between cache on and off", path)
		}
	}
}

func TestRDMASortVariableRecords(t *testing.T) {
	// Variable-size records spanning multiple packets exercise the
	// size-aware packer's min-one-record path (values up to 19 KB against
	// a 4 KB packet size).
	c := newRDMACluster(t, 3, nil)
	fs := c.FS()
	paths, err := workload.RandomWriter(fs, "/sort/in", 150<<10, 48<<10, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "sort", Input: paths, Output: "/sort/out", NumReduces: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/sort/out", kv.BytesComparator, want, false); err != nil {
		t.Fatal(err)
	}
}

func TestCachingReducesDiskReads(t *testing.T) {
	// Figure 8's mechanism: with caching on, responder lookups hit the
	// PrefetchCache, so TaskTracker disk reads drop sharply. Packets of
	// four records make a partition several chunks long: uncached, every
	// chunk is a disk read; cached, every partition was adopted into the
	// cache as its map committed (D24), before any reducer could ask, so
	// none is read at all.
	run := func(caching bool) map[string]int64 {
		conf := rdmaConf()
		conf.SetInt(config.KeyKVPairsPerPacket, 4)
		conf.SetBool(config.KeyCachingEnabled, caching)
		c := newRDMACluster(t, 3, conf)
		res := runTeraSort(t, c, 1200, 6)
		return res.Counters
	}
	with := run(true)
	without := run(false)
	if with["cache.hits"] == 0 {
		t.Fatalf("caching enabled but no hits: %v", with)
	}
	if without["cache.hits"] != 0 {
		t.Fatalf("caching disabled but hits recorded: %v", without)
	}
	if with["tracker.mapoutput.disk.reads"] >= without["tracker.mapoutput.disk.reads"] {
		t.Fatalf("caching did not reduce disk reads: with=%d without=%d",
			with["tracker.mapoutput.disk.reads"], without["tracker.mapoutput.disk.reads"])
	}
	if with["tracker.mapoutput.disk.reads"] != 0 || with["cache.misses"] != 0 {
		t.Fatalf("every partition adopted at commit, yet %d disk reads and %d misses",
			with["tracker.mapoutput.disk.reads"], with["cache.misses"])
	}
}

// TestAdoptedMapOutputReadsNoDiskAndLeaksNoBlock: on a 3-node TeraSort
// with the cache large enough for the job, every map output partition is
// encoded into a registered block and adopted by the cache at commit
// (D24): no prefetch copy, no disk read, every request a hit. Once the
// job is over — RemoveJob, then CleanupJob deleting the stored runs —
// every device pool is back to the blocks it had before the job.
func TestAdoptedMapOutputReadsNoDiskAndLeaksNoBlock(t *testing.T) {
	conf := rdmaConf()
	// What outlives a job is held steady: the plane's endpoints never idle
	// out, and one request in service per tracker needs one header block.
	conf.SetInt(config.KeyRDMAConnIdleTimeout, 0)
	conf.SetInt(config.KeyResponderThreads, 1)
	c := newRDMACluster(t, 3, conf)
	pools := make([]*mrpool.Pool, 0, 3)
	for _, tt := range c.Trackers() {
		pools = append(pools, mrpool.For(tt.Device()))
	}
	// A first job of the same shape dials every endpoint and carves the
	// blocks that outlive a job; the second is measured against it.
	runTeraSort(t, c, 1200, 6)
	settle := func(want []int64) []int64 {
		t.Helper()
		got := make([]int64, len(pools))
		deadline := time.Now().Add(10 * time.Second)
		for i, pool := range pools {
			// A lease the copier releases after the job ends still pins its
			// run until the release arrives.
			for got[i] = pool.OutstandingBlocks(); want != nil && got[i] != want[i]; got[i] = pool.OutstandingBlocks() {
				if time.Now().After(deadline) {
					t.Fatalf("node%d: %d slab blocks outstanding after the job, %d before (%v)", i, got[i], want[i], pool.Attribution())
				}
				time.Sleep(time.Millisecond)
			}
		}
		return got
	}
	before := settle(nil)
	res := runTeraSortNamed(t, c, "second", 1200, 6)
	settle(before)
	for i, pool := range pools {
		if n := pool.Attribution()["cache"]; n != 0 {
			t.Fatalf("node%d: %d bytes of cache blocks outlived the job", i, n)
		}
	}
	partitions := int64(res.NumMaps * res.NumReduces)
	if got := res.Counters["cache.adopted"]; got != partitions {
		t.Fatalf("cache.adopted = %d, want every one of %d partitions", got, partitions)
	}
	if got := res.Counters["cache.prefetched"]; got != partitions {
		t.Fatalf("cache.prefetched = %d, want %d: adopted partitions count as prefetched", got, partitions)
	}
	if reads := res.Counters["tracker.mapoutput.disk.reads"]; reads != 0 {
		t.Fatalf("tracker.mapoutput.disk.reads = %d, want 0", reads)
	}
	if misses, demoted := res.Counters["cache.misses"], res.Counters["cache.demoted"]; misses != 0 || demoted != 0 {
		t.Fatalf("cache.misses = %d, cache.demoted = %d, want 0 and 0", misses, demoted)
	}
	if res.Counters["cache.hits"] == 0 {
		t.Fatal("no cache hits")
	}
}

func TestOverlapAblation(t *testing.T) {
	// D3: with overlap disabled the job still computes correct results
	// (barrier semantics), so the ablation bench compares like for like.
	conf := rdmaConf()
	conf.SetBool(config.KeyOverlapReduce, false)
	c := newRDMACluster(t, 2, conf)
	runTeraSort(t, c, 600, 4)
}

func TestFIFOCachePolicy(t *testing.T) {
	conf := rdmaConf()
	conf.Set(config.KeyCachePriorityMode, "fifo")
	c := newRDMACluster(t, 2, conf)
	runTeraSort(t, c, 600, 4)
}

func TestTinyCacheStillCorrect(t *testing.T) {
	// A cache far smaller than the job's map output evicts adopted runs as
	// later maps commit: each is demoted — the store keeps a heap copy and
	// lets go of the registered block — and served from disk on a miss.
	// Results must still be correct.
	conf := rdmaConf()
	conf.SetInt(config.KeyPrefetchCacheCap, 1<<20)
	conf.SetInt(config.KeyBlockSize, 64<<10)
	c := newRDMACluster(t, 2, conf)
	res := runTeraSort(t, c, 40000, 4) // 4 MB of map output, 2 MB a node
	if res.Counters["cache.demoted"] == 0 {
		t.Fatalf("no adopted run was demoted: %v", res.Counters)
	}
	if res.Counters["cache.misses"] == 0 {
		t.Log("no misses observed (every evicted run was fetched before its eviction)")
	}
}

func TestSingleMapSingleReduce(t *testing.T) {
	c := newRDMACluster(t, 1, nil)
	runTeraSort(t, c, 100, 1)
}

func TestEmptyPartitions(t *testing.T) {
	// With far more reduces than distinct keys, many partitions are
	// empty; segments must handle empty-EOF chunks.
	c := newRDMACluster(t, 2, nil)
	fs := c.FS()
	recs := []kv.Record{{Key: []byte("only"), Value: []byte("one")}}
	if err := fs.WriteFile("/e/in", "", kv.WriteRun(recs)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "empty", Input: []string{"/e/in"}, Output: "/e/out", NumReduces: 8,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestManySequentialJobsReuseServers(t *testing.T) {
	c := newRDMACluster(t, 2, nil)
	for i := 0; i < 3; i++ {
		runTeraSort(t, c, 300, 2+i)
	}
	// Caches must be drained by JobComplete.
	for range c.Trackers() {
	}
}

func TestPrefetcherPopulatesCache(t *testing.T) {
	c := newRDMACluster(t, 2, nil)
	res := runTeraSort(t, c, 1000, 4)
	if res.Counters["cache.prefetched"] == 0 {
		t.Fatalf("prefetcher idle: %v", res.Counters)
	}
}

func TestRDMAMultiWaveReduces(t *testing.T) {
	// More reduce tasks than slots: later waves create their copiers
	// after the map phase has fully completed, consuming buffered events.
	c := newRDMACluster(t, 2, nil)
	res := runTeraSort(t, c, 800, 10)
	if res.NumReduces != 10 {
		t.Fatalf("reduces = %d", res.NumReduces)
	}
}
