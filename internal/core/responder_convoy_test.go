package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/verbs"
)

// parkWritesTo holds every byte-carrying RDMA write from one device to
// another inside its verdict until release is closed: the responder
// posting on that one connection stops inside PostSend, and the request
// being served on it stays in service, blocked in RDMAWrite. It matches on device names,
// which chaos.NthOp ignores.
type parkWritesTo struct {
	from, to string
	parked   chan struct{} // closed when the first write is held
	once     sync.Once
	release  chan struct{}
}

func (p *parkWritesTo) SendVerdict(localDev, remoteDev string, op verbs.Opcode, bytes int) verbs.FaultVerdict {
	if op == verbs.OpRDMAWrite && bytes > 0 && localDev == p.from && remoteDev == p.to {
		p.once.Do(func() { close(p.parked) })
		<-p.release
	}
	return verbs.FaultVerdict{}
}

func (p *parkWritesTo) DialRefused(_, _ string) bool { return false }

// TestResponderStalledEndpointDoesNotStallOthers is D6's convoy case on
// the serving side. One tracker serves two reducer devices with caching
// off, so every chunk is a responder write. Writes to the first device
// are parked in the fabric while its copier keeps eight requests in
// flight, four times the two requests the tracker may have in service.
// The second device's full fetch from the same tracker must still finish,
// and the first device's must finish once its writes are released.
func TestResponderStalledEndpointDoesNotStallOthers(t *testing.T) {
	const maps, recsPerMap = 16, 60
	conf := stressConf(8)
	conf.SetBool(config.KeyCachingEnabled, false)
	conf.SetInt(config.KeyResponderThreads, 2)
	cluster, err := mapred.NewCluster(3, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	trackers := cluster.Trackers()
	src, stalledOn, healthyOn := trackers[0], trackers[1], trackers[2]
	job := mapred.JobInfo{
		ID: "job_convoy", Conf: cluster.Conf(), Comparator: kv.BytesComparator,
		NumMaps: maps, NumReduces: 1,
	}
	for m := 0; m < maps; m++ {
		recs := make([]kv.Record, recsPerMap)
		for i := range recs {
			recs[i] = kv.Record{Key: []byte(fmt.Sprintf("k%05d-m%03d", i, m)), Value: bytes.Repeat([]byte{byte(m)}, 64)}
		}
		src.Store().Overwrite(mapred.MapOutputKey(job.ID, m, 0), kv.WriteRun(recs))
	}
	// fetch runs one full fetcher lifetime on the given tracker's device
	// against src and counts the merged records.
	fetch := func(ctx context.Context, on *mapred.TaskTracker) (int, error) {
		events := make(chan mapred.MapEvent, maps)
		for m := 0; m < maps; m++ {
			events <- mapred.MapEvent{MapID: m, Host: src.Host()}
		}
		close(events)
		f := newFetcher(mapred.ReduceTaskInfo{
			Job: job, ReduceID: 0, Events: events, Local: on, Hosts: []string{src.Host()},
		})
		defer f.Close()
		it, err := f.Fetch(ctx)
		if err != nil {
			return 0, err
		}
		n := 0
		for it.Next() {
			n++
		}
		return n, it.Err()
	}
	type result struct {
		n   int
		err error
	}

	park := &parkWritesTo{
		from: src.Device().Name(), to: stalledOn.Device().Name(),
		parked: make(chan struct{}), release: make(chan struct{}),
	}
	net := src.Fabric().Network()
	net.SetFaultInjector(park)
	defer net.SetFaultInjector(nil)
	released := false
	release := func() {
		if !released {
			released = true
			close(park.release)
		}
	}
	// Deferred after the injector's removal, so it runs first: nothing may
	// stay parked once the test returns.
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stalled := make(chan result, 1)
	go func() {
		n, err := fetch(ctx, stalledOn)
		stalled <- result{n, err}
	}()
	select {
	case <-park.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no write to the stalled device reached the fabric")
	}

	healthyCtx, healthyCancel := context.WithTimeout(ctx, 10*time.Second)
	n, err := fetch(healthyCtx, healthyOn)
	healthyCancel()
	if err != nil {
		t.Fatalf("healthy device's fetch while another endpoint is stalled: %v", err)
	}
	if n != maps*recsPerMap {
		t.Fatalf("healthy device merged %d records, want %d", n, maps*recsPerMap)
	}
	select {
	case r := <-stalled:
		t.Fatalf("stalled fetch ended (%d records, %v) while its writes were parked", r.n, r.err)
	default:
	}

	release()
	select {
	case r := <-stalled:
		if r.err != nil {
			t.Fatalf("stalled fetch after release: %v", r.err)
		}
		if r.n != maps*recsPerMap {
			t.Fatalf("stalled fetch merged %d records, want %d", r.n, maps*recsPerMap)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled fetch never finished after its writes were released")
	}
}
