// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§IV). Each BenchmarkFigNN target
// reruns the corresponding experiment through the performance simulator
// and reports the series the figure plots (virtual job seconds per
// configuration, as benchmark metrics). BenchmarkFunctionalEngines and
// the ablation/micro benchmarks exercise the functional plane on real
// data. See EXPERIMENTS.md for the paper-vs-measured record.
package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/fabric"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/sim"
	"rdmamr/internal/storage"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
	"rdmamr/internal/workload"
)

// benchFigure runs one figure's simulations and reports every series
// point as a metric "<label>@<tick>" in virtual seconds.
func benchFigure(b *testing.B, gen func() sim.Figure) {
	b.Helper()
	var f sim.Figure
	for i := 0; i < b.N; i++ {
		f = gen()
	}
	for _, s := range f.Series {
		for i, v := range s.Seconds {
			name := sanitizeMetric(s.Label + "@" + f.XTicks[i])
			b.ReportMetric(v, name)
		}
	}
}

func sanitizeMetric(s string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-")
	return r.Replace(s) + "_vsec"
}

// BenchmarkFig4aTeraSort4Node regenerates Figure 4(a): TeraSort on 4
// nodes, 20–40 GB, every interconnect with 1 and 2 HDDs.
func BenchmarkFig4aTeraSort4Node(b *testing.B) { benchFigure(b, sim.Fig4a) }

// BenchmarkFig4bTeraSort8Node regenerates Figure 4(b): TeraSort on 8
// nodes, 60–100 GB.
func BenchmarkFig4bTeraSort8Node(b *testing.B) { benchFigure(b, sim.Fig4b) }

// BenchmarkFig5TeraSortLarge regenerates Figure 5: TeraSort at
// 100 GB/12 nodes and 200 GB/24 nodes on storage nodes.
func BenchmarkFig5TeraSortLarge(b *testing.B) { benchFigure(b, sim.Fig5) }

// BenchmarkFig6aSort4Node regenerates Figure 6(a): Sort on 4 nodes.
func BenchmarkFig6aSort4Node(b *testing.B) { benchFigure(b, sim.Fig6a) }

// BenchmarkFig6bSort8Node regenerates Figure 6(b): Sort on 8 nodes.
func BenchmarkFig6bSort8Node(b *testing.B) { benchFigure(b, sim.Fig6b) }

// BenchmarkFig7SortSSD regenerates Figure 7: Sort on SSD data stores.
func BenchmarkFig7SortSSD(b *testing.B) { benchFigure(b, sim.Fig7) }

// BenchmarkFig8CachingEffect regenerates Figure 8: the
// mapred.local.caching.enabled ablation.
func BenchmarkFig8CachingEffect(b *testing.B) { benchFigure(b, sim.Fig8) }

// --- Functional-plane benchmarks (real data movement) ---

func functionalConf() *config.Config {
	c := config.New()
	c.SetInt(config.KeyBlockSize, 64<<10)
	c.SetInt(config.KeyMapSlots, 2)
	c.SetInt(config.KeyReduceSlots, 2)
	c.SetInt(config.KeyRDMAPacketBytes, 8192)
	c.SetInt(config.KeyKVPairsPerPacket, 64)
	return c
}

func runFunctionalTeraSort(b *testing.B, engine mapred.ShuffleEngine, conf *config.Config, rows int64, tag string) {
	b.Helper()
	runFunctionalTeraSortWith(b, engine, conf, rows, tag, nil)
}

// runFunctionalTeraSortWith is runFunctionalTeraSort with a per-cluster
// setup hook (e.g. installing a fabric latency model before the job runs).
func runFunctionalTeraSortWith(b *testing.B, engine mapred.ShuffleEngine, conf *config.Config, rows int64, tag string, setup func(*mapred.Cluster)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := mapred.NewCluster(3, conf, engine)
		if err != nil {
			b.Fatal(err)
		}
		if setup != nil {
			setup(c)
		}
		fs := c.FS()
		paths, err := workload.TeraGen(fs, "/in", rows, 32<<10, 1)
		if err != nil {
			b.Fatal(err)
		}
		sample, err := workload.SampleKeys(fs, paths, mapred.TeraInput, 100)
		if err != nil {
			b.Fatal(err)
		}
		part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 6))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.RunJob(context.Background(), &mapred.Job{
			Name: fmt.Sprintf("%s-%d", tag, i), Input: paths, Output: fmt.Sprintf("/out%d", i),
			InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 6,
		}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
	}
	b.SetBytes(rows * workload.TeraRecordLen)
}

// BenchmarkFunctionalEngines compares the three shuffle engines moving
// real records through real transports (experiment E8).
func BenchmarkFunctionalEngines(b *testing.B) {
	b.Run("vanilla-http", func(b *testing.B) {
		runFunctionalTeraSort(b, httpshuffle.New(), functionalConf(), 3000, "v")
	})
	b.Run("hadoop-a", func(b *testing.B) {
		runFunctionalTeraSort(b, core.NewHadoopA(), functionalConf(), 3000, "h")
	})
	b.Run("osu-ib-rdma", func(b *testing.B) {
		runFunctionalTeraSort(b, core.New(), functionalConf(), 3000, "o")
	})
}

// BenchmarkAblationChunkedTransfer compares chunked key-value transfer
// (D1) against whole-partition packets on the functional OSU engine.
func BenchmarkAblationChunkedTransfer(b *testing.B) {
	b.Run("chunked-4KB", func(b *testing.B) {
		conf := functionalConf()
		conf.SetInt(config.KeyRDMAPacketBytes, 4096)
		runFunctionalTeraSort(b, core.New(), conf, 3000, "c4")
	})
	b.Run("whole-partition-1MB", func(b *testing.B) {
		conf := functionalConf()
		conf.SetInt(config.KeyRDMAPacketBytes, 1<<20)
		conf.SetInt(config.KeyKVPairsPerPacket, 1<<20)
		runFunctionalTeraSort(b, core.New(), conf, 3000, "cw")
	})
}

// BenchmarkAblationCachePolicy compares the priority cache policy (D2)
// against FIFO and against caching disabled.
func BenchmarkAblationCachePolicy(b *testing.B) {
	for _, mode := range []string{"priority", "fifo", "off"} {
		b.Run(mode, func(b *testing.B) {
			conf := functionalConf()
			if mode == "off" {
				conf.SetBool(config.KeyCachingEnabled, false)
			} else {
				conf.Set(config.KeyCachePriorityMode, mode)
			}
			runFunctionalTeraSort(b, core.New(), conf, 3000, "p"+mode[:1])
		})
	}
}

// BenchmarkAblationOutstandingDepth sweeps the RDMA copier's
// per-connection pipeline depth (mapred.rdma.outstanding.per.conn, the
// bounce-buffer ring size). Depth 1 reproduces the old lockstep
// request→wait→copy copier; deeper rings keep more DataRequests in
// flight per TaskTracker connection, hiding the round trip. The
// functional run injects amplified verbs latency (delay = modeled/0.05,
// i.e. 20×) so the round trip dominates; the job_vsec metric is the
// deterministic paper-scale signal from the simulator's no-cache path,
// where the residual per-chunk stall scales with depth.
func BenchmarkAblationOutstandingDepth(b *testing.B) {
	for _, depth := range []int64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			conf := functionalConf()
			conf.SetInt(config.KeyRDMAPacketBytes, 4096) // more chunks per segment
			conf.SetInt(config.KeyRDMAOutstandingPerConn, depth)
			runFunctionalTeraSortWith(b, core.New(), conf, 3000, fmt.Sprintf("d%d", depth),
				func(c *mapred.Cluster) {
					c.Trackers()[0].Fabric().Network().SetLatencyModel(fabric.Models(fabric.IBVerbs), 0.05)
				})
			p := sim.DefaultParams(sim.OSUIB, fabric.IBVerbs, storage.HDD1, sim.TeraSort, 8, 60e9)
			p.Caching = false
			p.FetchDepth = int(depth)
			res, err := sim.Run(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.JobSeconds, "job_vsec")
		})
	}
}

// BenchmarkAblationConnScale sweeps the D13 connection & registered-
// memory scaling model over cluster sizes the paper's testbed could
// never reach: per-node endpoint counts and pinned MR bytes for the
// legacy per-(fetcher, host) transport versus the shared connection
// plane (LRU-capped endpoints, SRQ receives, slab MR carves). The
// plane's series goes flat once remote hosts exceed cap + active fetch
// streams; the legacy series grows linearly without bound
// (TestConnScalingSubLinear in internal/sim is the gate on the same model).
func BenchmarkAblationConnScale(b *testing.B) {
	for _, nodes := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var pt sim.ConnScalePoint
			for i := 0; i < b.N; i++ {
				pt = sim.ConnScale(sim.ConnScaleParams{Nodes: nodes})
			}
			b.ReportMetric(float64(pt.LegacyConns), "legacy_conns")
			b.ReportMetric(float64(pt.PlaneConns), "plane_conns")
			b.ReportMetric(float64(pt.LegacyMRBytes)/1e6, "legacy_mr_mb")
			b.ReportMetric(float64(pt.PlaneMRBytes)/1e6, "plane_mr_mb")
		})
	}
}

// BenchmarkAblationOverlap compares streaming shuffle/merge/reduce
// overlap (D3) against the barrier hand-off on the simulator, where the
// pipelining effect is visible at paper scale.
func BenchmarkAblationOverlap(b *testing.B) {
	for _, overlap := range []bool{true, false} {
		name := "overlap"
		if !overlap {
			name = "barrier"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams(sim.OSUIB, fabric.IBVerbs, storage.HDD1, sim.TeraSort, 8, 60e9)
				p.Overlap = overlap
				res, err := sim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.JobSeconds
			}
			b.ReportMetric(last, "job_vsec")
		})
	}
}

// BenchmarkVerbsSendRecv measures the emulated verbs SEND/RECV path.
func BenchmarkVerbsSendRecv(b *testing.B) {
	net := verbs.NewNetwork()
	a, _ := net.NewDevice("a")
	d2, _ := net.NewDevice("b")
	cqA, cqB := a.CreateCQ(64), d2.CreateCQ(64)
	qpA, _ := a.CreateQP(cqA, cqA)
	qpB, _ := d2.CreateQP(cqB, cqB)
	_ = qpA.Connect("b", qpB.QPN())
	_ = qpB.Connect("a", qpA.QPN())
	src, _ := a.RegisterMemory(make([]byte, 4096))
	dst, _ := d2.RegisterMemory(make([]byte, 4096))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qpB.PostRecv(verbs.RecvWR{SGE: verbs.SGE{MR: dst, Length: 4096}})
		_ = qpA.PostSend(verbs.SendWR{Opcode: verbs.OpSend, SGE: verbs.SGE{MR: src, Length: 4096}})
		if wc, err := cqA.Wait(ctx); err != nil || wc.Status != verbs.WCSuccess {
			b.Fatalf("send: %v %v", wc, err)
		}
		if wc, err := cqB.Wait(ctx); err != nil || wc.Status != verbs.WCSuccess {
			b.Fatalf("recv: %v %v", wc, err)
		}
	}
	b.SetBytes(4096)
}

// BenchmarkVerbsRDMAWrite measures the emulated one-sided RDMA write
// path the shuffle data plane uses.
func BenchmarkVerbsRDMAWrite(b *testing.B) {
	for _, size := range []int{4 << 10, 128 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			net := verbs.NewNetwork()
			a, _ := net.NewDevice("a")
			d2, _ := net.NewDevice("b")
			cqA := a.CreateCQ(64)
			cqB := d2.CreateCQ(64)
			qpA, _ := a.CreateQP(cqA, cqA)
			qpB, _ := d2.CreateQP(cqB, cqB)
			_ = qpA.Connect("b", qpB.QPN())
			_ = qpB.Connect("a", qpA.QPN())
			src, _ := a.RegisterMemory(make([]byte, size))
			dst, _ := d2.RegisterMemory(make([]byte, size))
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = qpA.PostSend(verbs.SendWR{
					Opcode: verbs.OpRDMAWrite, SGE: verbs.SGE{MR: src, Length: size},
					RemoteAddr: dst.Addr(), RKey: dst.RKey(),
				})
				if wc, err := cqA.Wait(ctx); err != nil || wc.Status != verbs.WCSuccess {
					b.Fatalf("write: %v %v", wc, err)
				}
			}
		})
	}
}

// BenchmarkUCRMessaging measures the UCR end-point message round trip.
func BenchmarkUCRMessaging(b *testing.B) {
	f := ucr.NewFabric()
	sdev, _ := f.NewDevice("s")
	cdev, _ := f.NewDevice("c")
	l, _ := f.Listen(sdev, "svc")
	ctx := context.Background()
	cep, err := f.Connect(ctx, cdev, "s", "svc")
	if err != nil {
		b.Fatal(err)
	}
	sep, err := l.Accept(ctx)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cep.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := sep.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(256)
}

// BenchmarkKWayMerge measures the priority-queue merge at reduce-side
// fan-ins typical of the paper's jobs.
func BenchmarkKWayMerge(b *testing.B) {
	for _, k := range []int{8, 64, 400} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runs := make([][]kv.Record, k)
			for i := range runs {
				recs := make([]kv.Record, 200)
				for j := range recs {
					recs[j] = kv.Record{Key: []byte(fmt.Sprintf("%03d-%05d", j%97, i*200+j)), Value: []byte("v")}
				}
				kv.SortRecords(recs, kv.BytesComparator)
				runs[i] = recs
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				its := make([]kv.Iterator, k)
				for i := range its {
					its[i] = kv.NewSliceIterator(runs[i])
				}
				m := kv.NewMerger(kv.BytesComparator, its...)
				count := 0
				for m.Next() {
					count++
				}
				if count != k*200 {
					b.Fatalf("merged %d, want %d", count, k*200)
				}
			}
		})
	}
}

// BenchmarkPrefetchCache measures PrefetchCache hit-path throughput.
func BenchmarkPrefetchCache(b *testing.B) {
	cache := core.NewPrefetchCache(1<<30, "priority", nil)
	data := make([]byte, 128<<10)
	for i := 0; i < 64; i++ {
		cache.Put(core.CacheKey{JobID: "j", MapID: i}, data, core.PriorityPrefetch)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Get(core.CacheKey{JobID: "j", MapID: i % 64}); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkExtensionScaling runs the weak-scaling extension experiment
// (the paper's "larger clusters" future work).
func BenchmarkExtensionScaling(b *testing.B) { benchFigure(b, sim.FigScaling) }

// BenchmarkAblationBlockSize sweeps HDFS block size for the OSU design on
// the simulator — the tuning the paper performs in §IV ("we have
// identified the optimal values of HDFS block-size").
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, mb := range []float64{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("block-%0.fMB", mb), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams(sim.OSUIB, fabric.IBVerbs, storage.HDD1, sim.TeraSort, 8, 100e9)
				p.BlockSize = mb * (1 << 20)
				res, err := sim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.JobSeconds
			}
			b.ReportMetric(last, "job_vsec")
		})
	}
}
