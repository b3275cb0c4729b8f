package faultinject_test

import (
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/ucr"
	"rdmamr/internal/workload"
)

// TestConnCacheChurnChaos is the D13 acceptance gate for the connection
// plane under pressure: back-to-back TeraSorts on a 3-node cluster with
// the per-device connection cache clamped to ONE endpoint — every device
// talks to two remote peers, so the second job's first acquire always
// finds the cache over cap with an idle victim — while a seeded chaos
// schedule severs QPs underneath. The invariants: both outputs
// byte-identical to the input checksum, severs healed by reconnection
// (never map re-execution), eviction churn actually observed, and when
// the dust settles every per-job slab class on every device is back to
// zero bytes — no ring or cache block leaked through the churn — and the
// recycled header and staging blocks are within their free lists' bounds.
// Run under -race by the `make chaos` gate.
func TestConnCacheChurnChaos(t *testing.T) {
	conf := testConf()
	conf.SetInt(config.KeyParallelCopies, 4)
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	// The churn screws: cache capped below the remote-host count, idle
	// timeout longer than one job (so job 1's connections are still
	// cached — and over cap — when job 2 starts dialing) but far shorter
	// than the inter-job pause.
	conf.SetInt(config.KeyRDMAConnCacheMax, 1)
	conf.SetInt(config.KeyRDMAConnIdleTimeout, 50)

	inj := chaos.New(chaos.Config{Seed: 29, SeverProb: 1, MaxFaults: 3})
	c, err := mapred.NewCluster(3, conf, chaos.Wrap(core.New(), inj))
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

	var res *mapred.JobResult
	for run := 0; run < 2; run++ {
		out := fmt.Sprintf("/out%d", run)
		res, err = c.RunJob(ctxT(t), &mapred.Job{
			Name: fmt.Sprintf("conn-churn-%d", run), Input: paths, Output: out,
			InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 4,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := workload.Validate(fs, out, kv.BytesComparator, want, true); err != nil {
			t.Fatalf("run %d output invalid under conn-cache churn: %v", run, err)
		}
		// Between jobs every cached connection goes idle past the 50ms
		// timeout; job 2's dials then hit the over-cap + idle-victim path.
		time.Sleep(100 * time.Millisecond)
	}

	if inj.Faults() == 0 {
		t.Fatal("no faults injected; nothing proven")
	}
	if res.Counters["map.tasks.recovered"] != 0 {
		t.Fatalf("maps re-executed for transient faults under churn: %v", res.Counters)
	}
	if res.Counters["shuffle.rdma.conn.evicted"] == 0 {
		t.Fatalf("cache.max=1 across two jobs produced zero evictions — no churn exercised: %v", res.Counters)
	}
	if res.Counters["shuffle.rdma.conn.reused"] == 0 {
		t.Fatalf("no lease ever shared a cached connection: %v", res.Counters)
	}

	// The leak gate: once per-job cache entries are dropped (JobComplete)
	// and fetcher rings are freed, every per-job slab class must be back
	// to zero bytes on every device. What's allowed to remain is server
	// infrastructure — the device-lifetime SRQ receive region (ucr.recv),
	// the send block of each still-cached endpoint (ucr.send, bounded by
	// the LRU cap), and recycled response-header and staging blocks
	// (header and stage, bounded by the responders' free lists and freed
	// at tracker Close, not per job: a list keeps one block per responder
	// and one more, a staging block at most a copier slot, the packet and
	// 64 KiB). Those two are checked exactly below: every staging block
	// was released, and closing the cluster leaves none of either.
	// Responder-side releases trail the job result slightly, so poll.
	jobClasses := []string{"ring", "cache"}
	keep := conf.Int(config.KeyResponderThreads) + 1
	hdrBound := keep * ucr.MaxMessage
	stageBound := keep * (conf.Int(config.KeyRDMAPacketBytes) + 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	for _, tt := range c.Trackers() {
		pool := mrpool.For(tt.Device())
		for {
			leaked := int64(0)
			attr := pool.Attribution()
			for _, class := range jobClasses {
				leaked += attr[class]
			}
			if hdr := attr["header"]; hdr > hdrBound {
				t.Fatalf("device %s holds %d header bytes, more than the responder pool (%d) can recycle: %v",
					tt.Host(), hdr, hdrBound, attr)
			}
			if stage := attr["stage"]; stage > stageBound {
				t.Fatalf("device %s holds %d staging bytes, more than its free list (%d) keeps: %v",
					tt.Host(), stage, stageBound, attr)
			}
			if leaked == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("device %s leaked %d slab bytes in per-job classes after teardown: %v",
					tt.Host(), leaked, attr)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if n := tt.Counters().Counter("shuffle.rdma.stage.outstanding").Get(); n != 0 {
			t.Fatalf("device %s has %d staging blocks that were never released", tt.Host(), n)
		}
	}
	c.Close()
	for _, tt := range c.Trackers() {
		attr := mrpool.For(tt.Device()).Attribution()
		if attr["header"] != 0 || attr["stage"] != 0 {
			t.Fatalf("device %s still holds header or staging bytes after Close: %v", tt.Host(), attr)
		}
	}
}
