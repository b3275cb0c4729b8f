package shuffle_test

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/fabric"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// runTeraSortOn runs and validates TeraSort on an already-built cluster.
func runTeraSortOn(t *testing.T, c *mapred.Cluster, rows int64) (workload.Checksum, *mapred.JobResult) {
	t.Helper()
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
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ts-arm", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatal(err)
	}
	return want, res
}

// TestFetchArmBitForBit is the fetch protocol's acceptance check: the same
// TeraSort run three ways through the one protocol writes byte-identical
// output files, and each way demonstrably took the path it names — "read":
// caching on, every cache-resident partition served by manifest + READ
// (rendezvous), eager responses only for cache misses; "staging": caching
// off, every chunk staged and RDMA-written (eager); "mixed": caching on
// with a 1 ms lease and a cache far too small for the job, so published
// manifests lose their memory mid-plan and faulted READs are re-issued
// eagerly.
func TestFetchArmBitForBit(t *testing.T) {
	ways := []struct {
		name    string
		conf    func(*config.Config)
		cluster func(*mapred.Cluster)
	}{
		{name: "read"},
		{name: "staging", conf: func(c *config.Config) { c.SetBool(config.KeyCachingEnabled, false) }},
		{name: "mixed",
			conf: func(c *config.Config) {
				c.SetInt(config.KeyRDMAReadLeaseTimeout, 1)
				c.SetInt(config.KeyPrefetchCacheCap, 24<<10)
			},
			// Amplify modeled verbs latency into real sleeps so plans
			// stretch over many janitor ticks and lose their leases.
			cluster: func(c *mapred.Cluster) {
				c.Trackers()[0].Fabric().Network().SetLatencyModel(fabric.Models(fabric.IBVerbs), 0.05)
			}},
	}
	outputs := map[string]map[string][]byte{}
	results := map[string]*mapred.JobResult{}
	for _, way := range ways {
		t.Run(way.name, func(t *testing.T) {
			conf := engineConf()
			conf.SetBool(config.KeyRDMAEnabled, true) // lifts the cache-size floor
			// Small packets: a partition is several chunks, so a manifest
			// is a plan that outlives its first READ.
			conf.SetInt(config.KeyKVPairsPerPacket, 4)
			if way.conf != nil {
				way.conf(conf)
			}
			c, err := mapred.NewCluster(4, conf, core.New())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if way.cluster != nil {
				way.cluster(c)
			}
			_, res := runTeraSortOn(t, c, 1500)
			files := map[string][]byte{}
			for _, path := range c.FS().List("/out") {
				data, err := c.FS().ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				files[path] = data
			}
			outputs[way.name], results[way.name] = files, res
			n := res.Counters
			t.Logf("bytes=%d packets=%d manifests=%d read.issued=%d zerocopy.hits=%d zerocopy.fallbacks=%d read.fallbacks=%d cache.misses=%d",
				n["shuffle.rdma.bytes"], n["shuffle.rdma.packets"], n["shuffle.rdma.read.manifests"], n["shuffle.rdma.read.issued"],
				n["shuffle.rdma.zerocopy.hits"], n["shuffle.rdma.zerocopy.fallbacks"], n["shuffle.rdma.read.fallbacks"], n["cache.misses"])
		})
	}
	if len(outputs) != len(ways) {
		t.Fatal("a run did not complete")
	}
	first := outputs[ways[0].name]
	if len(first) == 0 {
		t.Fatal("no output files")
	}
	for _, way := range ways[1:] {
		got := outputs[way.name]
		if len(got) != len(first) {
			t.Fatalf("%s wrote %d output files, %s %d", way.name, len(got), ways[0].name, len(first))
		}
		for path, want := range first {
			if !bytes.Equal(got[path], want) {
				t.Fatalf("output %s differs between %s and %s", path, ways[0].name, way.name)
			}
		}
		if got, want := results[way.name].Counters["shuffle.rdma.bytes"], results[ways[0].name].Counters["shuffle.rdma.bytes"]; got != want {
			t.Fatalf("%s moved %d shuffle bytes, %s %d", way.name, got, ways[0].name, want)
		}
	}
	// Mechanism assertions: each way moved its bytes the way it names.
	for name, res := range results {
		if got, want := res.Counters["shuffle.rdma.bytes"], res.Counters["shuffle.rdma.recv.bytes"]; got != want || got == 0 {
			t.Fatalf("%s: shuffle.rdma.bytes = %d, reducers received %d", name, got, want)
		}
	}
	read, staging, mixed := results["read"].Counters, results["staging"].Counters, results["mixed"].Counters
	if read["shuffle.rdma.read.manifests"] == 0 || read["shuffle.rdma.read.issued"] == 0 {
		t.Fatalf("caching on, undisturbed: no manifest, no READ: %v", read)
	}
	if read["shuffle.rdma.read.fallbacks"] != 0 {
		t.Fatalf("caching on, undisturbed: %d READs faulted", read["shuffle.rdma.read.fallbacks"])
	}
	if got, want := read["shuffle.rdma.zerocopy.fallbacks"], read["cache.misses"]; got != want {
		t.Fatalf("caching on, undisturbed: %d eager responses for %d cache misses", got, want)
	}
	if got, want := read["shuffle.rdma.zerocopy.hits"]+read["shuffle.rdma.zerocopy.fallbacks"], read["shuffle.rdma.packets"]; got != want {
		t.Fatalf("caching on, undisturbed: %d chunks READ or staged, %d delivered", got, want)
	}
	for _, name := range []string{"shuffle.rdma.read.manifests", "shuffle.rdma.read.issued", "shuffle.rdma.zerocopy.hits", "shuffle.rdma.zerocopy.fallbacks", "cache.hits"} {
		if staging[name] != 0 {
			t.Fatalf("caching off: %s = %d, want 0", name, staging[name])
		}
	}
	if mixed["shuffle.rdma.read.fallbacks"] == 0 || mixed["shuffle.rdma.read.issued"] == 0 || mixed["shuffle.rdma.zerocopy.fallbacks"] == 0 {
		t.Fatalf("1 ms lease over a 24 KiB cache: the run never mixed rendezvous, faulted READs and eager responses: %v", mixed)
	}
}

// fetchArmChaosSeed mirrors the copier chaos seed contract: fixed for CI,
// overridable via RDMAMR_CHAOS_SEED.
func fetchArmChaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("RDMAMR_CHAOS_SEED")
	if s == "" {
		return 7
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RDMAMR_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed overridden: %d", seed)
	return seed
}

// reviveKillOnFirstOutput kills the serving side of the first host to
// announce a map output — by construction a host some reducer needs —
// and revives it shortly after, so plans under lease must ride out a dead
// peer without corrupting or hanging (and without needing RecoverMap).
type reviveKillOnFirstOutput struct {
	mapred.ShuffleEngine
	inj  *chaos.Injector
	once sync.Once
}

func (k *reviveKillOnFirstOutput) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	inner, err := k.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &reviveKillServer{TrackerServer: inner, k: k, host: tt.Host()}, nil
}

type reviveKillServer struct {
	mapred.TrackerServer
	k    *reviveKillOnFirstOutput
	host string
}

func (s *reviveKillServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	s.k.once.Do(func() {
		s.k.inj.KillPeer(s.host)
		time.AfterFunc(300*time.Millisecond, func() { s.k.inj.RevivePeer(s.host) })
	})
	s.TrackerServer.MapOutputReady(job, mapID)
}

// TestFetchArmReadSeededChaos runs TeraSort, served by manifest + READ
// wherever the cache allows, under the full degradation matrix at once: seeded transport chaos (severs, drops,
// delays), a killed-then-revived peer, cache capacity at its floor, and a
// 50ms lease so janitor expiry races live plans. The invariant is the
// acceptance contract: output validates byte-for-bit against the input
// checksum and the job completes — READ failures degrade to eager
// re-issues instead of corrupting or hanging.
func TestFetchArmReadSeededChaos(t *testing.T) {
	conf := engineConf()
	// Budget headroom above the fault caps, as in the copier chaos runs.
	conf.SetInt(config.KeyRDMAConnectRetries, 12)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	conf.SetInt(config.KeyRDMAReadLeaseTimeout, 50)
	conf.SetInt(config.KeyPrefetchCacheCap, 1<<20)

	inj := chaos.New(chaos.Config{
		Seed:         fetchArmChaosSeed(t),
		DropSendProb: 0.02,
		SeverProb:    0.04,
		DelayProb:    0.05,
		Delay:        200 * time.Microsecond,
		MaxFaults:    10,
	})
	eng := &reviveKillOnFirstOutput{ShuffleEngine: core.New(), inj: inj}
	c, err := mapred.NewCluster(3, conf, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	net := c.Trackers()[0].Fabric().Network()
	net.SetFaultInjector(inj)
	defer net.SetFaultInjector(nil)

	_, res := runTeraSortOn(t, c, 20000)

	if inj.Faults() == 0 {
		t.Fatal("chaos injector never fired; the run proved nothing")
	}
	if res.Counters["shuffle.rdma.read.issued"] == 0 {
		t.Fatalf("no chunk was READ under chaos: %v", res.Counters)
	}
	drops, fails, severs, delays, refusals := inj.Stats()
	t.Logf("chaos: drops=%d fails=%d severs=%d delays=%d refusals=%d", drops, fails, severs, delays, refusals)
	t.Logf("read: issued=%d bytes=%d manifests=%d fallbacks=%d lease.expired=%d evictions=%d reconnects=%d",
		res.Counters["shuffle.rdma.read.issued"], res.Counters["shuffle.rdma.read.bytes"],
		res.Counters["shuffle.rdma.read.manifests"], res.Counters["shuffle.rdma.read.fallbacks"],
		res.Counters["shuffle.rdma.read.lease.expired"], res.Counters["cache.evictions"],
		res.Counters["shuffle.rdma.reconnects"])
}
