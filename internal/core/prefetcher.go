package core

import (
	"container/heap"
	"sync"

	"rdmamr/internal/mapred"
)

// MapOutputPrefetcher is the daemon thread pool of §III-B.3: "after
// finishing a map task, one of the daemons starts to fetch the data from
// this map output and caches it in PrefetchCache". Tasks are ordered by
// priority so demand-missed partitions are re-cached ahead of background
// prefetches.
type MapOutputPrefetcher struct {
	tt    *mapred.TaskTracker
	cache *PrefetchCache

	mu      sync.Mutex
	cond    *sync.Cond
	tasks   taskHeap
	seq     uint64
	stopped bool
	wg      sync.WaitGroup
}

// NewMapOutputPrefetcher starts workers daemon goroutines serving the
// prefetch queue.
func NewMapOutputPrefetcher(tt *mapred.TaskTracker, cache *PrefetchCache, workers int) *MapOutputPrefetcher {
	if workers < 1 {
		workers = 1
	}
	p := &MapOutputPrefetcher{tt: tt, cache: cache}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// MapCompleted enqueues background caching of every partition of a
// freshly completed map output.
func (p *MapOutputPrefetcher) MapCompleted(job mapred.JobInfo, mapID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	for r := 0; r < job.NumReduces; r++ {
		p.seq++
		heap.Push(&p.tasks, &prefetchTask{
			key:      CacheKey{JobID: job.ID, MapID: mapID, Partition: r},
			priority: PriorityPrefetch,
			seq:      p.seq,
		})
	}
	p.cond.Broadcast()
}

// Demand enqueues high-priority re-caching of a partition that just
// missed: "after disk fetch, it requests MapOutputPrefetcher to cache
// this particular map output data with more priority" (§III-B.3).
func (p *MapOutputPrefetcher) Demand(key CacheKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.seq++
	heap.Push(&p.tasks, &prefetchTask{key: key, priority: PriorityDemand, seq: p.seq})
	p.cond.Broadcast()
}

// CancelJob drops queued tasks for a finished job.
func (p *MapOutputPrefetcher) CancelJob(jobID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := p.tasks[:0]
	for _, t := range p.tasks {
		if t.key.JobID != jobID {
			keep = append(keep, t)
		}
	}
	p.tasks = keep
	heap.Init(&p.tasks)
}

// Pending returns the queued task count (diagnostics).
func (p *MapOutputPrefetcher) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.tasks)
}

// Close stops the daemons, discarding queued work.
func (p *MapOutputPrefetcher) Close() {
	p.mu.Lock()
	p.stopped = true
	p.tasks = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *MapOutputPrefetcher) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.tasks) == 0 && !p.stopped {
			p.cond.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		task := heap.Pop(&p.tasks).(*prefetchTask)
		p.mu.Unlock()

		if task.priority == PriorityPrefetch && p.cache.Contains(task.key) {
			continue // already cached (e.g. by a demand re-cache)
		}
		run, err := p.tt.MapOutput(task.key.JobID, task.key.MapID, task.key.Partition)
		if err != nil {
			// The output may have been cleaned up (job finished) — the
			// cache simply stays cold for it.
			p.tt.Counters().Add("cache.prefetch.failed", 1)
			continue
		}
		// Put copies the borrowed run into the cache's own (registered)
		// memory: the one copy between the store and the wire.
		if p.cache.Put(task.key, run, task.priority) {
			p.tt.Counters().Add("cache.prefetched", 1)
		}
	}
}
