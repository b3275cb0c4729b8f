package core

import (
	"container/heap"
	"sync"

	"rdmamr/internal/mapred"
	"rdmamr/internal/obs"
)

// MapOutputPrefetcher is the daemon thread pool of §III-B.3: "after
// finishing a map task, one of the daemons starts to fetch the data from
// this map output and caches it in PrefetchCache". Tasks are ordered by
// priority so demand-missed partitions are re-cached ahead of background
// prefetches. Since D24 a run the map encoded into registered memory is
// adopted by the cache at commit and never comes here: the daemons cache
// heap runs (no run allocator, or one that refused the run) and re-cache
// demand misses.
type MapOutputPrefetcher struct {
	tt          *mapred.TaskTracker
	cache       *PrefetchCache
	cPrefetched *obs.Counter // cache.prefetched, daemon-cached or adopted

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
	p := &MapOutputPrefetcher{tt: tt, cache: cache, cPrefetched: tt.Counters().Handle("cache.prefetched")}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Prefetch enqueues background caching of freshly completed map output
// partitions the cache did not adopt.
func (p *MapOutputPrefetcher) Prefetch(keys []CacheKey) {
	if len(keys) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	for _, key := range keys {
		p.push(&prefetchTask{key: key, priority: PriorityPrefetch})
	}
	p.cond.Broadcast()
}

// Demand enqueues high-priority re-caching of a partition that just
// missed: "after disk fetch, it requests MapOutputPrefetcher to cache
// this particular map output data with more priority" (§III-B.3). run is
// the partition as the miss read it from disk; the re-cache copies it
// rather than reading the disk a second time.
func (p *MapOutputPrefetcher) Demand(key CacheKey, run []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.push(&prefetchTask{key: key, priority: PriorityDemand, run: run})
	p.cond.Broadcast()
}

// push queues t in arrival order within its priority. Caller holds p.mu.
func (p *MapOutputPrefetcher) push(t *prefetchTask) {
	p.seq++
	t.seq = p.seq
	heap.Push(&p.tasks, t)
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
		run := task.run
		if run == nil {
			var err error
			if run, err = p.tt.MapOutput(task.key.JobID, task.key.MapID, task.key.Partition); err != nil {
				// The output may have been cleaned up (job finished) — the
				// cache simply stays cold for it.
				p.tt.Counters().Add("cache.prefetch.failed", 1)
				continue
			}
		}
		// Put copies the borrowed run into the cache's own (registered)
		// memory: the one copy between the store and the wire.
		if p.cache.Put(task.key, run, task.priority) {
			p.cPrefetched.Add(1)
		}
	}
}
