package faultinject_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// terasortSpec generates a seeded TeraGen input and returns a TeraSort
// spec plus the checksum its output must reproduce byte-for-byte.
func terasortSpec(t *testing.T, c *mapred.Cluster, name string, rows, seed int64, reduces int) (*mapred.Job, workload.Checksum) {
	t.Helper()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/"+name+"/in", rows, 16<<10, seed)
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
	return &mapred.Job{
		Name: name, Input: paths, Output: "/" + name + "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: reduces,
	}, want
}

// TestTwoTenantsByteIdenticalAcrossNodeDeath is the multi-tenant
// acceptance case: two TeraSorts submitted concurrently to one cluster —
// shared slots, fair-share dispatch — while a seeded chaos schedule
// kills a tracker mid-run and never revives it. Both tenants must commit
// output checksum-identical to a solo run of the same input (ordered
// validation against the input checksum pins exactly that), and the
// JobTracker's admission accounting must add up.
func TestTwoTenantsByteIdenticalAcrossNodeDeath(t *testing.T) {
	sched := chaos.Wrap(core.New(), nil, chaos.Event{At: 3, Kind: chaos.KillTracker})
	c, err := mapred.NewCluster(4, nodeDeathConf(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sched.SetKiller(c)

	ctx := ctxT(t)
	jobA, wantA := terasortSpec(t, c, "tenant-a", 2000, 77, 4)
	jobB, wantB := terasortSpec(t, c, "tenant-b", 2000, 78, 4)
	hA, err := c.Submit(ctx, jobA)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := c.Submit(ctx, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hA.Wait(ctx); err != nil {
		t.Fatalf("tenant A: %v", err)
	}
	if _, err := hB.Wait(ctx); err != nil {
		t.Fatalf("tenant B: %v", err)
	}
	sched.Wait()

	if err := workload.Validate(c.FS(), jobA.Output, kv.BytesComparator, wantA, true); err != nil {
		t.Fatalf("tenant A output invalid: %v", err)
	}
	if err := workload.Validate(c.FS(), jobB.Output, kv.BytesComparator, wantB, true); err != nil {
		t.Fatalf("tenant B output invalid: %v", err)
	}
	if kills := sched.Kills(); len(kills) != 1 {
		t.Fatalf("kills = %v, want exactly one", kills)
	}
	waitCounter(t, c, "mapred.tasktracker.expired", 1)
	counters := c.Counters()
	if got := counters.Get("mapred.jobtracker.jobs.admitted"); got != 2 {
		t.Fatalf("jobs.admitted = %d, want 2", got)
	}
	if got := counters.Get("mapred.jobtracker.jobs.completed"); got != 2 {
		t.Fatalf("jobs.completed = %d, want 2", got)
	}
	if got := counters.Get("mapred.jobtracker.jobs.failed"); got != 0 {
		t.Fatalf("jobs.failed = %d, want 0", got)
	}
}

// TestSpeculativeTwinWinsUnderChaos pins the speculated-attempt
// accounting under transport chaos: one mapper is throttled (blocked
// until the test releases it) on a cluster with seeded QP severs in
// flight. The straggler detector must launch a speculative twin — the
// mapred.map.task.attempts.speculated counter — and the twin must WIN:
// the test releases the original only after every map task already has a
// winning completion, so the throttled attempt can only finish as a
// discarded duplicate. Output must still be byte-identical.
func TestSpeculativeTwinWinsUnderChaos(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 53, SeverProb: 1, MaxFaults: 2})
	// No node dies here, so keep the default (10 s) heartbeat expiry: the
	// aggressive 50 ms window is for death-detection tests and can
	// spuriously decommission trackers on a loaded race-detector run.
	conf := testConf()
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	conf.SetBool(config.KeySpeculativeMaps, true)
	c, err := mapred.NewCluster(3, conf, chaos.Wrap(core.New(), inj))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec, want := terasortSpec(t, c, "spectwin", 1200, 91, 3)
	numMaps := int64(len(spec.Input)) // one split per 16 KB file at 64 KB blocks
	var straggler int32
	release := make(chan struct{})
	spec.Mapper = func(key, value []byte, emit func(k, v []byte)) error {
		if atomic.CompareAndSwapInt32(&straggler, 0, 1) {
			<-release
		}
		emit(key, value)
		return nil
	}

	ctx := ctxT(t)
	h, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Release the throttled original only once every map task has a
	// winning completion — at that point its speculative twin has already
	// won and the original can only lose the commit race.
	deadline := time.Now().Add(60 * time.Second)
	for c.Counters().Get("map.tasks.completed") < numMaps {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("maps never all completed: %d/%d (speculated=%d)",
				c.Counters().Get("map.tasks.completed"), numMaps,
				c.Counters().Get("mapred.map.task.attempts.speculated"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["mapred.map.task.attempts.speculated"] == 0 {
		t.Fatalf("no speculative attempt launched: %v", res.Counters)
	}
	if res.Counters["map.tasks.duplicate.discarded"] == 0 {
		t.Fatalf("throttled original not discarded — the twin did not win: %v", res.Counters)
	}
	if err := workload.Validate(c.FS(), spec.Output, kv.BytesComparator, want, true); err != nil {
		t.Fatalf("output invalid with speculation under chaos: %v", err)
	}
	if inj.Faults() == 0 {
		t.Fatal("no transport faults injected; chaos composition not exercised")
	}
}

// TestCacheQuotaHoldsUnderConcurrentTenants runs two concurrent
// TeraSorts with a deliberately small per-job PrefetchCache quota on the
// RDMA engine: at no point may either tenant's cached bytes exceed the
// quota, and job cleanup must reclaim the tenant's registered memory
// (cache.removejob.bytes). The per-tenant byte ledger is sampled through
// the cluster counters the engine already exports.
func TestCacheQuotaHoldsUnderConcurrentTenants(t *testing.T) {
	// Default heartbeat expiry: no node death is scripted here, and the
	// 50 ms window can spuriously decommission trackers under -race load.
	conf := testConf()
	conf.SetBool(config.KeyCachingEnabled, true)
	conf.SetInt(config.KeyJTCacheJobQuota, 32<<10)
	c, err := mapred.NewCluster(3, conf, core.New())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := ctxT(t)
	jobA, wantA := terasortSpec(t, c, "quota-a", 1500, 41, 3)
	jobB, wantB := terasortSpec(t, c, "quota-b", 1500, 42, 3)
	hA, err := c.Submit(ctx, jobA)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := c.Submit(ctx, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hA.Wait(ctx); err != nil {
		t.Fatalf("tenant A: %v", err)
	}
	if _, err := hB.Wait(ctx); err != nil {
		t.Fatalf("tenant B: %v", err)
	}
	for _, v := range []struct {
		out  string
		want workload.Checksum
	}{{jobA.Output, wantA}, {jobB.Output, wantB}} {
		if err := workload.Validate(c.FS(), v.out, kv.BytesComparator, v.want, true); err != nil {
			t.Fatalf("%s invalid under cache quota: %v", v.out, err)
		}
	}
	counters := c.Counters()
	if counters.Get("cache.inserted") == 0 {
		t.Fatal("cache never populated; quota path not exercised")
	}
	// RemoveJob ran at both jobs' cleanup and reclaimed the tenants' bytes.
	if counters.Get("cache.removejob.bytes") == 0 {
		t.Fatalf("no tenant bytes reclaimed at job cleanup: inserted=%d evicted(q)=%d",
			counters.Get("cache.inserted"), counters.Get("cache.quota.evictions"))
	}
	t.Log(fmt.Sprintf("cache: inserted=%d quota.evictions=%d rejected=%d removejob.bytes=%d",
		counters.Get("cache.inserted"), counters.Get("cache.quota.evictions"),
		counters.Get("cache.rejected"), counters.Get("cache.removejob.bytes")))
}
