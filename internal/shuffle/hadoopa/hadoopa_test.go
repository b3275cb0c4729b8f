package hadoopa_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/hadoopa"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/verbs"
	"rdmamr/internal/workload"
)

func newCluster(t *testing.T, nodes int, conf *config.Config) *mapred.Cluster {
	t.Helper()
	if conf == nil {
		conf = config.New()
		conf.SetInt(config.KeyBlockSize, 64<<10)
		conf.SetInt(config.KeyMapSlots, 2)
		conf.SetInt(config.KeyReduceSlots, 2)
	}
	c, err := mapred.NewCluster(nodes, conf, hadoopa.New())
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

func TestHadoopATeraSort(t *testing.T) {
	c := newCluster(t, 3, nil)
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
	if res.Counters["shuffle.hadoopa.bytes"] == 0 {
		t.Fatal("no levitated-merge traffic")
	}
	// No cache, ever: every serve is a disk read.
	if res.Counters["cache.hits"] != 0 || res.Counters["cache.prefetched"] != 0 {
		t.Fatalf("Hadoop-A must not cache: %v", res.Counters)
	}
}

func TestHadoopACountDrivenPacking(t *testing.T) {
	// With kvpairs.per.packet = 8 and 100-byte records, packets carry
	// ~8 records regardless of the RDMA packet size setting — the
	// size-oblivious fill §III-C.3 contrasts with the OSU design.
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyKVPairsPerPacket, 8)
	conf.SetInt(config.KeyRDMAPacketBytes, 1<<20)
	c := newCluster(t, 2, conf)
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
	packets := res.Counters["shuffle.hadoopa.packets"]
	bytes := res.Counters["shuffle.hadoopa.bytes"]
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
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyKVPairsPerPacket, 16)
	c := newCluster(t, 2, conf)
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
	c := newCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/e/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: []byte("v")}}))
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ha-empty", Input: []string{"/e/in"}, Output: "/e/out", NumReduces: 6,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestResponderAllocBudget: Hadoop-A has no cache, so every packet it
// serves is a disk read of the whole partition — read in place. A request
// stages one packet's bytes and puts nothing partition-sized on the heap,
// however far into the partition it starts.
func TestResponderAllocBudget(t *testing.T) {
	c := newCluster(t, 1, nil)
	tt := c.Trackers()[0]
	recs := make([]kv.Record, 10000)
	for i := range recs {
		recs[i] = kv.Record{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: bytes.Repeat([]byte{byte(i)}, 90)}
	}
	run := kv.WriteRun(recs)
	tt.Store().OverwriteOwned(mapred.MapOutputKey("job_t", 0, 0), run)

	dev, err := tt.Fabric().NewDevice("raw-client")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	ep, err := tt.Fabric().Connect(ctx, dev, tt.Host(), hadoopa.ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	fetch := func(offset int64) *wire.DataResponse {
		req := wire.DataRequest{JobID: "job_t", Offset: offset, MaxBytes: 64 << 10, MaxRecords: 1 << 20}
		if err := ep.Send(ctx, req.Encode()); err != nil {
			t.Fatal(err)
		}
		msg, err := ep.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeDataResponse(msg)
		if err != nil || resp.Err != "" || resp.Bytes == 0 {
			t.Fatalf("response at offset %d: %+v, %v", offset, resp, err)
		}
		return resp
	}
	offset := int64(fetch(0).Bytes) // the connection's staging region now exists
	reads := c.Counters().Get("tracker.mapoutput.disk.reads")
	allocated := alloctest.Bytes(5, func() { offset += int64(fetch(offset).Bytes) })
	if allocated > uint64(len(run))/4 {
		t.Errorf("a packet of a %d-byte partition allocated %d bytes, budget %d", len(run), allocated, len(run)/4)
	}
	if got := c.Counters().Get("tracker.mapoutput.disk.reads") - reads; got != 5 {
		t.Fatalf("%d disk reads for 5 packets: every packet must read the partition", got)
	}
}

// planted is one tracker holding maps sorted partitions of recs 100-byte
// records each, fetched by driving the engine's ReduceFetcher directly.
type planted struct {
	t    *testing.T
	c    *mapred.Cluster
	tt   *mapred.TaskTracker
	job  mapred.JobInfo
	maps int
}

func plant(t *testing.T, maps, recs int) *planted {
	conf := config.New()
	conf.SetInt(config.KeyKVPairsPerPacket, 16) // many packets per partition
	c := newCluster(t, 1, conf)
	p := &planted{t: t, c: c, tt: c.Trackers()[0], maps: maps, job: mapred.JobInfo{
		ID: "job_planted", Conf: c.Conf(), Comparator: kv.BytesComparator, NumMaps: maps, NumReduces: 1,
	}}
	for m := 0; m < maps; m++ {
		run := make([]kv.Record, recs)
		for i := range run {
			run[i] = kv.Record{Key: []byte(fmt.Sprintf("k%05d-m%03d", i, m)), Value: bytes.Repeat([]byte{byte(m), byte(i)}, 44)}
		}
		p.tt.Store().OverwriteOwned(mapred.MapOutputKey(p.job.ID, m, 0), kv.WriteRun(run))
	}
	return p
}

// open starts one reduce fetch; recover, when not nil, is wired as the
// task's RecoverMap.
func (p *planted) open(ctx context.Context, recover func(context.Context, int, int) (string, error)) (mapred.ReduceFetcher, kv.Iterator) {
	p.t.Helper()
	events := make(chan mapred.MapEvent, p.maps)
	for m := 0; m < p.maps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: p.tt.Host()}
	}
	close(events)
	f, err := hadoopa.New().NewReduceFetcher(mapred.ReduceTaskInfo{
		Job: p.job, Events: events, Local: p.tt, Hosts: []string{p.tt.Host()}, RecoverMap: recover,
	})
	if err != nil {
		p.t.Fatal(err)
	}
	it, err := f.Fetch(ctx)
	if err != nil {
		f.Close()
		p.t.Fatal(err)
	}
	return f, it
}

func (p *planted) stream(ctx context.Context, recover func(context.Context, int, int) (string, error)) []kv.Record {
	p.t.Helper()
	f, it := p.open(ctx, recover)
	defer f.Close()
	var out []kv.Record
	for it.Next() {
		out = append(out, it.Record().Clone())
	}
	if err := it.Err(); err != nil {
		p.t.Fatal(err)
	}
	return out
}

// TestReadFailureMidPartitionResumesAtOffset: an RDMA READ that fails on a
// partition's third packet, with map recovery wired, re-requests that
// packet's offset from the recovered host. (The error chunk used to leave
// its offset unset, so the segment started over at 0 and the reduce saw
// the first two packets' records twice.)
func TestReadFailureMidPartitionResumesAtOffset(t *testing.T) {
	p := plant(t, 1, 100) // one segment: packet n is READ n
	ctx := ctxT(t)
	want := p.stream(ctx, nil)
	if len(want) != 100 {
		t.Fatalf("fault-free stream has %d records, want 100", len(want))
	}

	fault := chaos.DropNth(verbs.OpRDMARead, 3)
	p.tt.Fabric().Network().SetFaultInjector(fault)
	defer p.tt.Fabric().Network().SetFaultInjector(nil)
	recoveries := 0
	got := p.stream(ctx, func(_ context.Context, mapID, attempt int) (string, error) {
		recoveries++
		return p.tt.Host(), nil // the output is intact; only the READ failed
	})
	select {
	case <-fault.Reached():
	default:
		t.Fatal("the third READ never came: nothing was dropped")
	}
	if recoveries != 1 {
		t.Fatalf("%d recoveries for one dropped READ", recoveries)
	}
	if len(got) != len(want) {
		t.Fatalf("stream after a failed READ has %d records, fault-free has %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d = %s, fault-free %s", i, got[i], want[i])
		}
	}
}

// TestCancelWhileBlockedOnRefill: the reduce goroutine is inside Next,
// waiting for a packet whose READ the fabric is sitting on, when the fetch
// context is cancelled: Err carries ctx.Err(), Close returns, and no
// goroutine of the reduce side is left. The same for Close before the
// first Next.
func TestCancelWhileBlockedOnRefill(t *testing.T) {
	p := plant(t, 1, 100)
	p.stream(ctxT(t), nil) // starts what a device starts once (its receive pump)
	baseline := runtime.NumGoroutine()
	// The tracker keeps an accepted endpoint's handler and QP processor
	// until it closes itself — two goroutines for every fetch there has
	// been, drained or not. Everything else a fetch starts must be gone.
	fetches := 0
	settle := func(when string) {
		t.Helper()
		fetches++
		want := baseline + 2*fetches
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines, want at most %d\n%s", when, runtime.NumGoroutine(), want,
					buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.stream(ctxT(t), nil)
	settle("after a drained fetch")

	fault := chaos.ParkNth(verbs.OpRDMARead, 3)
	p.tt.Fabric().Network().SetFaultInjector(fault)
	defer p.tt.Fabric().Network().SetFaultInjector(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, it := p.open(ctx, nil)
	type result struct {
		n   int
		err error
	}
	done := make(chan result)
	go func() {
		n := 0
		for it.Next() {
			n++
		}
		done <- result{n, it.Err()}
	}()
	<-fault.Reached()
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) || r.n == 0 || r.n >= 100 {
			t.Fatalf("Err = %v after %d records, want context.Canceled in mid-stream", r.err, r.n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next still blocked 10 s after the fetch context was cancelled")
	}
	fault.Release()
	closed := make(chan struct{})
	go func() { f.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after a cancelled fetch")
	}
	settle("after cancel + Close")

	p.tt.Fabric().Network().SetFaultInjector(nil)
	f, _ = p.open(context.Background(), nil)
	f.Close()
	settle("after Close before the first Next")
}
