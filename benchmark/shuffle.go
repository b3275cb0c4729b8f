package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/pkg/rdmamr"
)

// shuffleSizes sizes a shuffle-only workload: map outputs are planted in
// the trackers' local stores and only the reduce-side fetch runs, so
// mapred scheduling, the map-side sort and hdfs do no work.
type shuffleSizes struct {
	Engine      string `json:"engine"`
	Nodes       int    `json:"nodes"`
	Maps        int    `json:"maps"`
	Reduces     int    `json:"reduces"`
	PartBytes   int    `json:"part_bytes"`
	TeraRecords bool   `json:"tera_records"` // 100-byte records, else RandomWriter sizes
	Caching     bool   `json:"caching"`      // mapred.local.caching.enabled
}

type shuffleInstance struct {
	sz      shuffleSizes
	cluster *mapred.Cluster
	job     mapred.JobInfo
	data    *planted
	hosts   []string
	layer   string // package of the engine under the fetch spans
	par     int    // reduce fetchers in flight
	logged  atomic.Int32
}

func engineLayer(engine string) string {
	switch engine {
	case "osu-ib-rdma":
		return "core"
	case "hadoop-a":
		return "hadoopa"
	default:
		return "httpshuffle"
	}
}

func setupShuffle(sz shuffleSizes, seed int64, tr *tracer, op, parent int) (instance, error) {
	engine, err := rdmamr.EngineByName(sz.Engine)
	if err != nil {
		return nil, err
	}
	conf := config.New()
	conf.SetBool(config.KeyCachingEnabled, sz.Caching)
	sp := tr.begin(op, parent, "mapred", "NewCluster")
	cluster, err := mapred.NewCluster(sz.Nodes, conf, engine)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s := &shuffleInstance{
		sz: sz, cluster: cluster, layer: engineLayer(sz.Engine),
		par: runtime.GOMAXPROCS(0),
		job: mapred.JobInfo{
			ID: "job_bench", Conf: conf, Comparator: kv.BytesComparator,
			NumMaps: sz.Maps, NumReduces: sz.Reduces,
		},
	}
	for _, tt := range cluster.Trackers() {
		s.hosts = append(s.hosts, tt.Host())
	}

	sp = tr.begin(op, parent, "benchmark", "plantPartitions")
	s.data = plantPartitions(seed, sz.Maps, sz.Reduces, sz.PartBytes, sz.TeraRecords)
	tr.end(sp)

	sp = tr.begin(op, parent, "storage", "Overwrite")
	for m, parts := range s.data.runs {
		store := cluster.Trackers()[m%sz.Nodes].Store()
		for r, run := range parts {
			store.Overwrite(mapred.MapOutputKey(s.job.ID, m, r), run)
		}
	}
	tr.end(sp)

	sp = tr.begin(op, parent, s.layer, "MapOutputReady")
	servers := cluster.Servers()
	for m := 0; m < sz.Maps; m++ {
		servers[m%sz.Nodes].MapOutputReady(s.job, m)
	}
	err = s.awaitCache()
	tr.end(sp)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	return s, nil
}

// awaitCache waits until the prefetcher has cached every planted
// partition, when the engine caches at all.
func (s *shuffleInstance) awaitCache() error {
	if s.sz.Engine != "osu-ib-rdma" || !s.sz.Caching {
		return nil
	}
	want := int64(s.sz.Maps * s.sz.Reduces)
	deadline := time.Now().Add(time.Minute)
	for s.cluster.Counters().Get("cache.prefetched") < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("cache holds %d of %d partitions after a minute",
				s.cluster.Counters().Get("cache.prefetched"), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// op is one round: every reducer fetches and merges its partition of
// every map, at most par reducers at a time.
func (s *shuffleInstance) op(ctx context.Context, tr *tracer) int {
	round := tr.begin(tr.newOp(), 0, "benchmark", "round")
	var before map[string]int64
	if tr != nil {
		before = s.counters()
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Int32
		sem    = make(chan struct{}, s.par)
	)
	for r := 0; r < s.sz.Reduces; r++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.fetch(ctx, r, tr, round); err != nil {
				failed.Add(1)
				if s.logged.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "benchmark: reducer %d: %v\n", r, err)
				}
			}
		}(r)
	}
	wg.Wait()
	tr.end(round)
	if tr != nil {
		tr.setCounters(round, counterDelta(s.counters(), before))
	}
	return int(failed.Load())
}

// fetch is one reducer's shuffle: open a fetcher, merge every map's
// partition r, and check what arrives against what was planted — record
// count, non-decreasing keys and the order-independent digest.
func (s *shuffleInstance) fetch(ctx context.Context, r int, tr *tracer, parent int) error {
	op := tr.newOp()
	root := tr.begin(op, parent, "benchmark", "reduce_fetch")
	defer tr.end(root)

	events := make(chan mapred.MapEvent, s.sz.Maps)
	for m := 0; m < s.sz.Maps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: s.hosts[m%s.sz.Nodes]}
	}
	close(events)

	sp := tr.begin(op, root, s.layer, "NewReduceFetcher")
	f, err := s.cluster.Engine().NewReduceFetcher(mapred.ReduceTaskInfo{
		Job: s.job, ReduceID: r, Attempt: 1, Events: events,
		Local: s.cluster.Trackers()[r%s.sz.Nodes], Hosts: s.hosts,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			f.Close()
		}
	}()

	sp = tr.begin(op, root, s.layer, "Fetch")
	it, err := f.Fetch(ctx)
	tr.end(sp)
	if err != nil {
		return err
	}

	var (
		got      digest
		prev     []byte
		unsorted bool
	)
	sp = tr.begin(op, root, s.layer, "first_record")
	more := it.Next()
	tr.end(sp)
	sp = tr.begin(op, root, s.layer, "drain")
	for ; more; more = it.Next() {
		rec := it.Record()
		if bytes.Compare(prev, rec.Key) > 0 {
			unsorted = true
		}
		prev = append(prev[:0], rec.Key...)
		got.add(rec)
	}
	tr.end(sp)
	if err := it.Err(); err != nil {
		return err
	}

	sp = tr.begin(op, root, s.layer, "Close")
	err = f.Close()
	closed = true
	tr.end(sp)
	if err != nil {
		return err
	}
	if unsorted {
		return errors.New("merged keys decrease")
	}
	if got != s.data.want[r] {
		return fmt.Errorf("received %+v, planted %+v", got, s.data.want[r])
	}
	return nil
}

func (s *shuffleInstance) check(*tracer) int  { return 0 } // fetch checks as it drains
func (s *shuffleInstance) attemptsPerOp() int { return s.sz.Reduces }
func (s *shuffleInstance) bytesPerOp() int64  { return s.data.runBytes }
func (s *shuffleInstance) counters() map[string]int64 {
	return s.cluster.Counters().Snapshot()
}
func (s *shuffleInstance) close() { s.cluster.Close() }

func (s *shuffleInstance) assertPath(d map[string]int64) error {
	if s.sz.Engine != "osu-ib-rdma" {
		return nil
	}
	if d["shuffle.rdma.bytes"] <= 0 {
		return errors.New("shuffle.rdma.bytes == 0 on the RDMA engine")
	}
	if s.sz.Caching {
		if n := d["cache.misses"]; n != 0 {
			return fmt.Errorf("cache.misses = %d with every partition cached, want 0", n)
		}
		return nil
	}
	if n := d["cache.hits"]; n != 0 {
		return fmt.Errorf("cache.hits = %d with caching off, want 0", n)
	}
	if d["tracker.mapoutput.disk.reads"] <= 0 {
		return errors.New("tracker.mapoutput.disk.reads == 0 with caching off")
	}
	return nil
}

func (s *shuffleInstance) layerMetrics(m map[string]sample, ops int, d map[string]int64, spans []span) {
	counterMetrics(m, ops, d, s.cluster)
	if s.layer != "core" {
		return
	}
	for metric, name := range map[string]string{
		"core.fetcher_new_us":   "NewReduceFetcher",
		"core.first_record_us":  "first_record",
		"core.drain_us":         "drain",
		"core.fetcher_close_us": "Close",
	} {
		m[metric] = medianOf(durations(spans, name), 1e-3, "us")
	}
}

// counterMetrics derives the per-layer numbers that come from counters
// the program already exports. Counts are per operation (job or round),
// so they do not depend on the run length.
func counterMetrics(m map[string]sample, ops int, d map[string]int64, cluster *mapred.Cluster) {
	perOp := func(name string) sample {
		return sample{Value: float64(d[name]) / float64(ops), Unit: "1/op"}
	}
	ratio := func(part, rest string) sample {
		v := 0.0
		if total := d[part] + d[rest]; total > 0 {
			v = float64(d[part]) / float64(total)
		}
		return sample{Value: v, Unit: "ratio"}
	}
	m["core.packets"] = perOp("shuffle.rdma.packets")
	m["core.slot_stalls"] = perOp("shuffle.rdma.slot.stalls")
	m["core.conn_opened"] = perOp("shuffle.rdma.conn.opened")
	m["core.conn_reused"] = perOp("shuffle.rdma.conn.reused")
	m["core.conn_evicted"] = perOp("shuffle.rdma.conn.evicted")
	m["core.reconnects"] = perOp("shuffle.rdma.reconnects")
	m["core.retries"] = perOp("shuffle.rdma.retries")
	m["core.cache_hit_ratio"] = ratio("cache.hits", "cache.misses")
	m["core.payload_pool_hit_ratio"] = ratio("shuffle.rdma.payload.pool.hits", "shuffle.rdma.payload.pool.misses")
	m["core.zerocopy_fallback_ratio"] = ratio("shuffle.rdma.zerocopy.fallbacks", "shuffle.rdma.zerocopy.hits")
	busy := 0.0
	if b := d["shuffle.rdma.bytes"]; b > 0 {
		busy = float64(d["shuffle.rdma.responder.busy.ns"]) / 1e6 / (float64(b) / 1e6)
	}
	m["core.responder_busy_ms_per_mb"] = sample{Value: busy, Unit: "ms/MB"}

	pinned := int64(0)
	for _, tt := range cluster.Trackers() {
		pinned += mrpool.For(tt.Device()).PinnedBytes()
	}
	m["mrpool.pinned_mb"] = sample{Value: float64(pinned) / 1e6, Unit: "MB"}
	m["mrpool.slab_allocs"] = perOp("mr.slab.allocs")
	m["mrpool.slab_failures"] = perOp("mr.slab.failures")
	m["storage.mapoutput_disk_reads"] = perOp("tracker.mapoutput.disk.reads")
}
