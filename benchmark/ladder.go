package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/hdfs"
	"rdmamr/internal/kv"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/storage"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
	wl "rdmamr/internal/workload"
)

// The ladder times each layer on its own, from outside, through the
// layer's public functions: one rung per operation and size. A change to
// one layer should move its rungs and the end-to-end metric the README's
// table names beside them, and nothing else.

// ladderBatches timed batches follow one discarded warm-up batch; a rung
// reports the median per-iteration time over the batches and its MAD.
const ladderBatches = 7

// batches runs fn iters times per batch and returns ns per iteration for
// each timed batch.
func batches(iters int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, ladderBatches)
	for b := 0; b <= ladderBatches; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		if b > 0 {
			out = append(out, float64(time.Since(t0))/float64(iters))
		}
	}
	return out, nil
}

// ladder accumulates rungs, latching the first error.
type ladder struct {
	m   map[string]sample
	err error
}

// ns records a rung as ns per iteration.
func (l *ladder) ns(name string, iters int, fn func() error) {
	l.scaled(name, "ns", iters, func(ns float64) float64 { return ns }, fn)
}

// scaled records a rung after converting each batch's ns per iteration
// with conv (to µs, to MB/s, to ns per record).
func (l *ladder) scaled(name, unit string, iters int, conv func(ns float64) float64, fn func() error) {
	if l.err != nil {
		return
	}
	xs, err := batches(iters, fn)
	if err != nil {
		l.err = fmt.Errorf("ladder rung %s: %w", name, err)
		return
	}
	for i := range xs {
		xs[i] = conv(xs[i])
	}
	l.m[name] = medianOf(xs, 1, unit)
}

func (l *ladder) fail(name string, err error) {
	if l.err == nil && err != nil {
		l.err = fmt.Errorf("ladder rung %s: %w", name, err)
	}
}

func mbPerS(bytes int) func(float64) float64 {
	return func(ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }
}

func perRecord(recs int) func(float64) float64 {
	return func(ns float64) float64 { return ns / float64(recs) }
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder runs every isolated rung. seed feeds the record generators.
func runLadder(seed int64) (map[string]sample, error) {
	l := &ladder{m: make(map[string]sample)}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	ladderVerbs(ctx, l)
	ladderUCR(ctx, l)
	ladderMRPool(l)
	ladderWire(l)
	ladderCache(l)
	ladderKV(l, seed)
	ladderStorage(l, seed)
	ladderFetch(ctx, l, seed)
	ladderBaselines(ctx, l, seed)
	return l.m, l.err
}

// qpPair is two connected queue pairs on two devices of one network, with
// a registered region of size bytes on each side.
type qpPair struct {
	qpA, qpB *verbs.QueuePair
	cqA, cqB *verbs.CQ
	src, dst *verbs.MemoryRegion
	devA     *verbs.Device
}

func newQPPair(size int) (*qpPair, error) {
	net := verbs.NewNetwork()
	a, err := net.NewDevice("a")
	if err != nil {
		return nil, err
	}
	b, err := net.NewDevice("b")
	if err != nil {
		return nil, err
	}
	p := &qpPair{devA: a, cqA: a.CreateCQ(64), cqB: b.CreateCQ(64)}
	if p.qpA, err = a.CreateQP(p.cqA, p.cqA); err != nil {
		return nil, err
	}
	if p.qpB, err = b.CreateQP(p.cqB, p.cqB); err != nil {
		return nil, err
	}
	if err = p.qpA.Connect("b", p.qpB.QPN()); err != nil {
		return nil, err
	}
	if err = p.qpB.Connect("a", p.qpA.QPN()); err != nil {
		return nil, err
	}
	if p.src, err = a.RegisterMemory(make([]byte, size)); err != nil {
		return nil, err
	}
	if p.dst, err = b.RegisterMemory(make([]byte, size)); err != nil {
		return nil, err
	}
	return p, nil
}

func waitOK(ctx context.Context, cq *verbs.CQ) error {
	wc, err := cq.Wait(ctx)
	if err != nil {
		return err
	}
	if wc.Status != verbs.WCSuccess {
		return fmt.Errorf("work completion: %v", wc.Status)
	}
	return nil
}

func ladderVerbs(ctx context.Context, l *ladder) {
	for _, r := range []struct {
		suffix string
		size   int
		iters  int
	}{{"4k", 4 << 10, 4000}, {"1m", 1 << 20, 100}} {
		p, err := newQPPair(r.size)
		if err != nil {
			l.fail("verbs", err)
			return
		}
		sge := verbs.SGE{MR: p.src, Length: r.size}
		if r.suffix == "4k" {
			l.ns("verbs.send_recv_4k_ns", r.iters, func() error {
				if err := p.qpB.PostRecv(verbs.RecvWR{SGE: verbs.SGE{MR: p.dst, Length: r.size}}); err != nil {
					return err
				}
				if err := p.qpA.PostSend(verbs.SendWR{Opcode: verbs.OpSend, SGE: sge}); err != nil {
					return err
				}
				if err := waitOK(ctx, p.cqA); err != nil {
					return err
				}
				return waitOK(ctx, p.cqB)
			})
		}
		l.ns("verbs.rdma_write_"+r.suffix+"_ns", r.iters, func() error {
			err := p.qpA.PostSend(verbs.SendWR{Opcode: verbs.OpRDMAWrite, SGE: sge,
				RemoteAddr: p.dst.Addr(), RKey: p.dst.RKey()})
			if err != nil {
				return err
			}
			return waitOK(ctx, p.cqA)
		})
		sgl := []verbs.SGE{sge}
		l.ns("verbs.rdma_read_"+r.suffix+"_ns", r.iters, func() error {
			if err := p.qpA.PostRead(verbs.ReadWR{SGL: sgl, RemoteAddr: p.dst.Addr(), RKey: p.dst.RKey()}); err != nil {
				return err
			}
			return waitOK(ctx, p.cqA)
		})
		if r.suffix == "1m" {
			buf := make([]byte, r.size)
			l.ns("verbs.reg_mr_1m_ns", 2000, func() error {
				mr, err := p.devA.RegisterMemory(buf)
				if err != nil {
					return err
				}
				return mr.Deregister()
			})
		}
		p.qpA.Destroy()
		p.qpB.Destroy()
	}
}

func ladderUCR(ctx context.Context, l *ladder) {
	f := ucr.NewFabric()
	sdev, err := f.NewDevice("s")
	if err != nil {
		l.fail("ucr", err)
		return
	}
	cdev, err := f.NewDevice("c")
	if err != nil {
		l.fail("ucr", err)
		return
	}
	lis, err := f.Listen(sdev, "svc")
	if err != nil {
		l.fail("ucr", err)
		return
	}
	defer lis.Close()
	connect := func() (cep, sep *ucr.EndPoint, err error) {
		if cep, err = f.Connect(ctx, cdev, "s", "svc"); err != nil {
			return nil, nil, err
		}
		if sep, err = lis.Accept(ctx); err != nil {
			cep.Close()
			return nil, nil, err
		}
		return cep, sep, nil
	}
	l.ns("ucr.connect_ns", 200, func() error {
		cep, sep, err := connect()
		if err != nil {
			return err
		}
		cep.Close()
		sep.Close()
		return nil
	})
	cep, sep, err := connect()
	if err != nil {
		l.fail("ucr", err)
		return
	}
	defer cep.Close()
	defer sep.Close()

	msg := make([]byte, 256)
	roundTrip := func() error {
		if err := cep.Send(ctx, msg); err != nil {
			return err
		}
		_, err := sep.Recv(ctx)
		return err
	}
	l.ns("ucr.msg_256b_ns", 4000, roundTrip)
	if l.err == nil {
		const n = 4000
		m0 := mallocs()
		for i := 0; i < n; i++ {
			if err := roundTrip(); err != nil {
				l.fail("ucr.msg_allocs", err)
				return
			}
		}
		l.m["ucr.msg_allocs"] = sample{Value: float64(mallocs()-m0) / n, Unit: "allocs", N: n}
	}

	const readLen = 128 << 10
	remote, err := sep.RegisterMemory(make([]byte, readLen))
	if err != nil {
		l.fail("ucr", err)
		return
	}
	local, err := cep.RegisterMemory(make([]byte, readLen))
	if err != nil {
		l.fail("ucr", err)
		return
	}
	l.ns("ucr.rdma_read_128k_ns", 1000, func() error {
		return cep.RDMARead(ctx, verbs.SGE{MR: local, Length: readLen}, remote.Addr(), remote.RKey())
	})
}

func ladderMRPool(l *ladder) {
	dev, err := verbs.NewNetwork().NewDevice("pool")
	if err != nil {
		l.fail("mrpool", err)
		return
	}
	pool := mrpool.For(dev)
	for _, r := range []struct {
		name string
		size int
	}{{"mrpool.alloc_free_4k_ns", 4 << 10}, {"mrpool.alloc_free_128k_ns", 128 << 10}} {
		l.ns(r.name, 20000, func() error {
			blk, err := pool.Alloc(r.size, "bench")
			if err != nil {
				return err
			}
			blk.Free()
			return nil
		})
	}
}

func ladderWire(l *ladder) {
	req := wire.DataRequest{JobID: "job_201309_0001", MapID: 17, ReduceID: 3, Offset: 1 << 20,
		MaxBytes: 128 << 10, MaxRecords: 1024, RemoteAddr: 0xdeadbeef000, RKey: 42, Tag: 7, Flags: wire.FlagFetchRead}
	l.ns("wire.req_codec_ns", 100000, func() error {
		_, err := wire.DecodeDataRequest(req.Encode())
		return err
	})
	resp := wire.DataResponse{MapID: 17, ReduceID: 3, Offset: 1 << 20, Bytes: 128 << 10, Records: 1024, Tag: 7}
	l.ns("wire.resp_codec_ns", 100000, func() error {
		_, err := wire.DecodeDataResponse(resp.Encode())
		return err
	})
	man := wire.ReadManifest{MapID: 17, ReduceID: 3, Tag: 7, LeaseID: 99, RKey: 42}
	for c := 0; c < 8; c++ {
		ck := wire.ReadChunk{Offset: int64(c) * 128 << 10, Bytes: 128 << 10, Records: 13, EOF: c == 7}
		for r := 0; r < 4; r++ {
			ck.Ranges = append(ck.Ranges, wire.ReadRange{Addr: uint64(c*4+r) * 32 << 10, Len: 32 << 10})
		}
		man.Chunks = append(man.Chunks, ck)
	}
	l.ns("wire.manifest_codec_ns", 20000, func() error {
		_, err := wire.DecodeReadManifest(man.Encode())
		return err
	})
}

func ladderCache(l *ladder) {
	dev, err := verbs.NewNetwork().NewDevice("cache")
	if err != nil {
		l.fail("core.cache", err)
		return
	}
	cache := core.NewPrefetchCache(1<<30, "priority", nil)
	// Registered at Put, as the tracker server wires it by default.
	cache.SetRegistrar(mrpool.For(dev))
	data := make([]byte, 128<<10)
	const keys = 64
	key := func(i int) core.CacheKey { return core.CacheKey{JobID: "j", MapID: i % keys} }
	i := 0
	l.ns("core.cache_put_128k_ns", 2000, func() error {
		i++
		if !cache.Put(key(i), data, core.PriorityPrefetch) {
			return fmt.Errorf("put %d rejected", i)
		}
		return nil
	})
	l.ns("core.cache_get_ns", 200000, func() error {
		i++
		if _, ok := cache.Get(key(i)); !ok {
			return fmt.Errorf("get %d missed", i)
		}
		return nil
	})
	l.ns("core.cache_acquire_release_ns", 200000, func() error {
		i++
		v, ok := cache.Acquire(key(i))
		if !ok {
			return fmt.Errorf("acquire %d missed", i)
		}
		v.Release()
		return nil
	})
}

func ladderKV(l *ladder, seed int64) {
	const n = 20000 // 2 MB of 100-byte records, two map-side spills' worth
	src := teraRecords(rand.New(rand.NewSource(seed)), n)
	work := make([]kv.Record, n)
	l.scaled("kv.sort_ns_per_rec", "ns/rec", 4, perRecord(n), func() error {
		copy(work, src)
		kv.SortRecords(work, kv.BytesComparator)
		return nil
	})
	l.scaled("kv.partition_sort_ns_per_rec", "ns/rec", 4, perRecord(n), func() error {
		copy(work, src)
		kv.PartitionAndSort(work, kv.HashPartitioner{}, 8, kv.BytesComparator)
		return nil
	})

	sortedRecs := append([]kv.Record(nil), src...)
	kv.SortRecords(sortedRecs, kv.BytesComparator)
	for _, k := range []int{8, 64} {
		runs := make([][]kv.Record, k)
		for i, rec := range sortedRecs {
			runs[i%k] = append(runs[i%k], rec)
		}
		its := make([]kv.Iterator, k)
		l.scaled(fmt.Sprintf("kv.merge_k%d_ns_per_rec", k), "ns/rec", 4, perRecord(n), func() error {
			for i := range its {
				its[i] = kv.NewSliceIterator(runs[i])
			}
			m := kv.NewMerger(kv.BytesComparator, its...)
			count := 0
			for m.Next() {
				count++
			}
			if err := m.Err(); err != nil {
				return err
			}
			if count != n {
				return fmt.Errorf("merged %d records, want %d", count, n)
			}
			return nil
		})
	}

	run := kv.WriteRun(sortedRecs)
	var buf bytes.Buffer
	l.scaled("kv.write_run_mb_per_s", "MB/s", 8, mbPerS(len(run)), func() error {
		buf.Reset()
		rw := kv.NewRunWriter(&buf)
		for _, rec := range sortedRecs {
			if err := rw.Write(rec); err != nil {
				return err
			}
		}
		return rw.Close()
	})
	l.scaled("kv.read_run_mb_per_s", "MB/s", 16, mbPerS(len(run)), func() error {
		rr, err := kv.NewRunReader(run)
		if err != nil {
			return err
		}
		for rr.Next() {
		}
		return rr.Err()
	})
}

func ladderStorage(l *ladder, seed int64) {
	const blockBytes, fileBytes = 1 << 20, 8 << 20
	fs := hdfs.New(blockBytes, 1)
	for i := 0; i < 4; i++ {
		if err := fs.AddDataNode(hdfs.NewDataNode(fmt.Sprintf("node%d", i), storage.NewLocalStore())); err != nil {
			l.fail("hdfs", err)
			return
		}
	}
	data := make([]byte, fileBytes)
	rand.New(rand.NewSource(seed)).Read(data)
	l.scaled("hdfs.write_mb_per_s", "MB/s", 8, mbPerS(fileBytes), func() error {
		if err := fs.WriteFile("/f", "", data); err != nil {
			return err
		}
		return fs.Delete("/f")
	})
	if err := fs.WriteFile("/f", "", data); err != nil {
		l.fail("hdfs", err)
		return
	}
	l.scaled("hdfs.read_mb_per_s", "MB/s", 8, mbPerS(fileBytes), func() error {
		got, err := fs.ReadFile("/f")
		if err == nil && len(got) != fileBytes {
			err = fmt.Errorf("read %d bytes, want %d", len(got), fileBytes)
		}
		return err
	})
	store := storage.NewLocalStore()
	l.ns("storage.put_get_1m_ns", 100, func() error {
		store.Overwrite("obj", data[:1<<20])
		_, err := store.Get("obj")
		return err
	})
}

// ladderFetch times the copier's chunk path through the engine's public
// NewReduceFetcher: one host, one reducer, small packets so a fetch is
// many chunks; and a fetcher over zero maps on a warm connection plane —
// the outside view of a connection-plane lease round trip.
func ladderFetch(ctx context.Context, l *ladder, seed int64) {
	if l.err != nil {
		return
	}
	chunked := shuffleSizes{Engine: "osu-ib-rdma", Nodes: 1, Maps: 8, Reduces: 1,
		PartBytes: 200 * wl.TeraRecordLen, TeraRecords: true, Caching: true}
	inst, err := setupShuffle(chunked, seed, nil, 0, 0)
	if err != nil {
		l.fail("core.fetch_chunk_us", err)
		return
	}
	s := inst.(*shuffleInstance)
	defer s.close()
	// Small packets, as the repo's own chunk-path benchmark uses: the
	// rung measures per-chunk cost, not bytes.
	s.job.Conf = s.job.Conf.Clone()
	s.job.Conf.SetInt(config.KeyRDMAPacketBytes, 2048)
	s.job.Conf.SetInt(config.KeyKVPairsPerPacket, 16)
	fetch := func() error { return s.fetch(ctx, 0, nil, 0) }
	if err := fetch(); err != nil { // warm the plane and the pools
		l.fail("core.fetch_chunk_us", err)
		return
	}
	c0, m0 := s.counters()["shuffle.rdma.packets"], mallocs()
	if err := fetch(); err != nil {
		l.fail("core.fetch_chunk_us", err)
		return
	}
	chunks := float64(s.counters()["shuffle.rdma.packets"] - c0)
	if chunks == 0 {
		l.fail("core.fetch_chunk_us", errors.New("no packets counted"))
		return
	}
	l.m["core.fetch_allocs_per_chunk"] = sample{Value: float64(mallocs()-m0) / chunks, Unit: "allocs", N: int(chunks)}
	l.scaled("core.fetch_chunk_us", "us", 50, func(ns float64) float64 { return ns / 1e3 / chunks }, fetch)

	s.sz.Maps, s.job.NumMaps = 0, 0
	s.data.want[0] = digest{}
	l.scaled("core.fetcher_open_close_us", "us", 500, func(ns float64) float64 { return ns / 1e3 }, fetch)
}

// ladderBaselines runs the shuffle_bulk harness, scaled down, on the two
// baseline engines: hadoopa shares ucr and verbs with core, so a
// transport gain must show there too; httpshuffle shares neither.
func ladderBaselines(ctx context.Context, l *ladder, seed int64) {
	for _, engine := range []string{"vanilla-http", "hadoop-a"} {
		if l.err != nil {
			return
		}
		name := engineLayer(engine) + ".shuffle_mb_per_s"
		sz := *workloadByName("shuffle_bulk").Shuffle
		sz.Engine = engine
		sz.Maps /= 2
		inst, err := setupShuffle(sz, seed, nil, 0, 0)
		if err != nil {
			l.fail(name, err)
			return
		}
		l.scaled(name, "MB/s", 1, mbPerS(int(inst.bytesPerOp())), func() error {
			if failed := inst.op(ctx, nil); failed > 0 {
				return fmt.Errorf("%d reducer fetches failed", failed)
			}
			return nil
		})
		inst.close()
	}
}
