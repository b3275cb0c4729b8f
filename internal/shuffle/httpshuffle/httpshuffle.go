// Package httpshuffle implements the default (vanilla) Hadoop shuffle the
// paper describes in §III-A: TaskTracker-side HTTP servlets serve whole
// map output files in 64 KB packets over sockets; ReduceTask-side copiers
// pull them, keeping data in memory when it fits and spilling to local
// disk otherwise; an In-Memory Merger and a Local FS Merger fold segments
// down; and reduce starts only after ALL merges complete — the implicit
// barrier the RDMA design removes.
//
// The transport is an in-process emulation of the socket path: payload
// bytes are copied (sockets always copy) and packet/byte counters record
// the traffic. Wire-time costs belong to the performance plane
// (internal/sim); this engine reproduces the structure and the disk
// behaviour of the socket design.
package httpshuffle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// Engine is the vanilla shuffle engine. One instance serves a cluster.
type Engine struct {
	mu       sync.Mutex
	servlets map[string]*servlet
}

// New returns a vanilla HTTP-style shuffle engine.
func New() *Engine {
	return &Engine{servlets: make(map[string]*servlet)}
}

// Name implements mapred.ShuffleEngine.
func (e *Engine) Name() string { return "vanilla-http" }

// StartTracker implements mapred.ShuffleEngine: it registers the
// TaskTracker's HTTP servlet pool.
func (e *Engine) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.servlets[tt.Host()]; ok {
		return nil, fmt.Errorf("httpshuffle: servlet already started on %s", tt.Host())
	}
	s := &servlet{engine: e, tt: tt}
	e.servlets[tt.Host()] = s
	return s, nil
}

func (e *Engine) servlet(host string) (*servlet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.servlets[host]
	if !ok {
		return nil, fmt.Errorf("httpshuffle: no servlet on %s", host)
	}
	return s, nil
}

// servlet handles map-output requests for one TaskTracker, as the paper's
// "HTTP Servlet" component: "upon HTTP request, the servlets get the
// appropriate map output file from local disk and send the output in an
// HTTP response message".
type servlet struct {
	engine *Engine
	tt     *mapred.TaskTracker
	closed bool
	mu     sync.Mutex
}

// MapOutputReady implements mapred.TrackerServer. The vanilla design has
// no pre-fetching: nothing to do.
func (s *servlet) MapOutputReady(mapred.JobInfo, int) {}

// JobComplete implements mapred.TrackerServer; the servlet keeps no
// per-job state.
func (s *servlet) JobComplete(mapred.JobInfo) {}

// Close implements mapred.TrackerServer.
func (s *servlet) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.engine.mu.Lock()
	delete(s.engine.servlets, s.tt.Host())
	s.engine.mu.Unlock()
	return nil
}

// fetch serves one whole map output partition, reading it from local disk
// on every request and packetizing at the configured HTTP packet size.
func (s *servlet) fetch(jobID string, mapID, reduceID int) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("httpshuffle: servlet closed")
	}
	s.mu.Unlock()
	data, err := s.tt.MapOutput(jobID, mapID, reduceID)
	if err != nil {
		return nil, err
	}
	packetSize := int(s.tt.Conf().Int(config.KeyHTTPPacketBytes))
	packets := (len(data) + packetSize - 1) / packetSize
	if packets == 0 {
		packets = 1
	}
	c := s.tt.Counters()
	c.Counter("shuffle.http.requests").Add(1)
	c.Counter("shuffle.http.packets").Add(int64(packets))
	c.Counter("shuffle.http.bytes").Add(int64(len(data)))
	// data is the tracker's stored run, borrowed. The socket path copies
	// the payload into the reducer's buffer (no zero-copy wire for the
	// baseline): this is that copy, and the only one.
	return slices.Clone(data), nil
}

// NewReduceFetcher implements mapred.ShuffleEngine.
func (e *Engine) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	conf := task.Job.Conf
	return &fetcher{
		engine:      e,
		task:        task,
		memLimit:    conf.Int(config.KeyShuffleMemLimit),
		sortFactor:  int(conf.Int(config.KeyIOSortFactor)),
		parallelism: int(conf.Int(config.KeyParallelCopies)),
	}, nil
}

// fetcher is the reduce-side pipeline: Map Completion Fetcher → Copiers →
// In-Memory Merger / Local FS Merger → barrier → final merge.
type fetcher struct {
	engine      *Engine
	task        mapred.ReduceTaskInfo
	memLimit    int64
	sortFactor  int
	parallelism int

	mu          sync.Mutex
	memSegments [][]byte // in-memory map output runs
	memBytes    int64
	diskRuns    []string // local-store keys of spilled runs
	diskSeq     int
}

func (f *fetcher) diskKey() string {
	f.diskSeq++
	return fmt.Sprintf("reduce/%s/r%05d/run%05d", f.task.Job.ID, f.task.ReduceID, f.diskSeq)
}

// Fetch implements mapred.ReduceFetcher with barrier semantics: it
// returns only after every map output has been copied and merged.
func (f *fetcher) Fetch(ctx context.Context) (kv.Iterator, error) {
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}

	// Copiers: a pool of mapred.reduce.parallel.copies workers consuming
	// map-completion events.
	for i := 0; i < f.parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case ev, ok := <-f.task.Events:
					if !ok {
						return
					}
					if err := f.copyOne(ctx, ev); err != nil {
						fail(fmt.Errorf("copying map %d from %s: %w", ev.MapID, ev.Host, err))
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The barrier: all copies done, fold everything into the final merge.
	return f.finalMerge()
}

// copyOne is one Copier request/response: fetch the partition, then place
// it in memory if it fits ("keeps the data in memory, if a sufficient
// amount of memory is available, or in a local disk, otherwise"). Fetch
// failures trigger map re-execution when recovery is wired up.
func (f *fetcher) copyOne(ctx context.Context, ev mapred.MapEvent) error {
	data, err := f.fetchWithRecovery(ctx, ev)
	if err != nil {
		return err
	}
	c := f.task.Local.Counters()

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.memBytes+int64(len(data)) <= f.memLimit {
		f.memSegments = append(f.memSegments, data)
		f.memBytes += int64(len(data))
		// In-Memory Merger: when the shuffle buffer passes 2/3 full,
		// merge the memory segments and keep the merged output on disk.
		if f.memBytes > f.memLimit*2/3 && len(f.memSegments) > 1 {
			if err := f.spillMemoryLocked(); err != nil {
				return err
			}
			c.Counter("shuffle.inmem.merges").Add(1)
		}
	} else {
		// Copier spills directly.
		key := f.diskKey()
		f.task.Local.Store().OverwriteOwned(key, data) // the fetched body is ours alone
		f.diskRuns = append(f.diskRuns, key)
		c.Counter("shuffle.copier.disk.spills").Add(1)
	}
	return f.compactDiskLocked()
}

// fetchWithRecovery fetches one partition, requesting map re-execution
// and retrying from the new host on failure.
func (f *fetcher) fetchWithRecovery(ctx context.Context, ev mapred.MapEvent) ([]byte, error) {
	host := ev.Host
	for attempt := 1; ; attempt++ {
		s, err := f.engine.servlet(host)
		if err == nil {
			var data []byte
			data, err = s.fetch(f.task.Job.ID, ev.MapID, f.task.ReduceID)
			if err == nil {
				return data, nil
			}
		}
		if f.task.RecoverMap == nil {
			return nil, err
		}
		if attempt > mapred.MaxMapRecoveries {
			return nil, fmt.Errorf("httpshuffle: map %d unrecoverable after %d fetch attempts (last host %s): %w",
				ev.MapID, attempt, host, err)
		}
		f.task.Local.Counters().Counter("shuffle.fetch.failures").Add(1)
		host, err = f.task.RecoverMap(ctx, ev.MapID, attempt)
		if err != nil {
			return nil, err
		}
	}
}

// spillMemoryLocked merges all in-memory segments into one disk run.
func (f *fetcher) spillMemoryLocked() error {
	merged, err := kv.MergeRuns(f.task.Job.Comparator, f.memSegments...)
	if err != nil {
		return err
	}
	key := f.diskKey()
	f.task.Local.Store().OverwriteOwned(key, merged) // built for this call
	f.diskRuns = append(f.diskRuns, key)
	f.memSegments = nil
	f.memBytes = 0
	return nil
}

// compactDiskLocked is the Local FS Merger: whenever the number of disk
// runs exceeds io.sort.factor, iteratively merge the smallest factor runs
// into one, "minimizing the total number of merged output files in local
// disk each time".
func (f *fetcher) compactDiskLocked() error {
	store := f.task.Local.Store()
	for len(f.diskRuns) > f.sortFactor {
		// Pick the smallest sortFactor runs.
		type sized struct {
			key  string
			size int64
		}
		runs := make([]sized, 0, len(f.diskRuns))
		for _, k := range f.diskRuns {
			n, err := store.Size(k)
			if err != nil {
				return err
			}
			runs = append(runs, sized{k, n})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].size < runs[j].size })
		pick := runs[:f.sortFactor]
		bufs := make([][]byte, 0, len(pick))
		for _, p := range pick {
			data, err := store.Get(p.key) // accounted disk read
			if err != nil {
				return err
			}
			bufs = append(bufs, data)
		}
		merged, err := kv.MergeRuns(f.task.Job.Comparator, bufs...)
		if err != nil {
			return err
		}
		picked := make(map[string]bool, len(pick))
		for _, p := range pick {
			picked[p.key] = true
			_ = store.Delete(p.key)
		}
		var next []string
		for _, k := range f.diskRuns {
			if !picked[k] {
				next = append(next, k)
			}
		}
		key := f.diskKey()
		store.OverwriteOwned(key, merged)
		f.diskRuns = append(next, key)
		f.task.Local.Counters().Counter("shuffle.localfs.merges").Add(1)
	}
	return nil
}

// finalMerge merges the remaining memory segments and disk runs into the
// stream handed to the reduce function. The disk runs are read in place
// (borrowed, not copied); the stream does not depend on Close coming after
// the reducer has drained it, because a borrowed run outlives its name.
func (f *fetcher) finalMerge() (kv.Iterator, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	store := f.task.Local.Store()
	its := make([]kv.Iterator, 0, len(f.memSegments)+len(f.diskRuns))
	for _, seg := range f.memSegments {
		rr, err := kv.NewRunReader(seg)
		if err != nil {
			return nil, err
		}
		its = append(its, rr)
	}
	for _, k := range f.diskRuns {
		data, err := store.Get(k) // accounted disk read
		if err != nil {
			return nil, err
		}
		rr, err := kv.NewRunReader(data)
		if err != nil {
			return nil, err
		}
		its = append(its, rr)
	}
	return kv.NewMerger(f.task.Job.Comparator, its...), nil
}

// Close implements mapred.ReduceFetcher, removing spilled runs.
func (f *fetcher) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	store := f.task.Local.Store()
	for _, k := range f.diskRuns {
		_ = store.Delete(k)
	}
	f.diskRuns = nil
	f.memSegments = nil
	return nil
}
