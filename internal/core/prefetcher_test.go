package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
)

// parkingRegistrar carves from a real pool but holds its first carve
// until released, so a prefetch daemon can be kept inside Put.
type parkingRegistrar struct {
	pool    *mrpool.Pool
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (r *parkingRegistrar) AllocRemote(n int, class string) (*mrpool.Block, error) {
	r.once.Do(func() {
		close(r.reached)
		<-r.release
	})
	return r.pool.AllocRemote(n, class)
}

// TestJobCompleteWaitsForInFlightPrefetch: a daemon has popped a task and
// is inside Put when the job completes. JobComplete must not return
// before that Put has finished, so RemoveJob sees the entry and frees its
// block; otherwise the cache keeps a registered entry for a job that is
// gone, and nothing but eviction reclaims it.
func TestJobCompleteWaitsForInFlightPrefetch(t *testing.T) {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	cluster, err := mapred.NewCluster(1, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	s := cluster.Servers()[0].(*trackerServer)
	reg := &parkingRegistrar{pool: s.mrp, reached: make(chan struct{}), release: make(chan struct{})}
	s.cache.SetRegistrar(reg)

	run := kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: bytes.Repeat([]byte{7}, 4096)}})
	const job = "job_inflight"
	s.prefetcher.Demand(CacheKey{JobID: job, MapID: 0, Partition: 0}, run)
	<-reg.reached

	done := make(chan struct{})
	go func() {
		s.JobComplete(mapred.JobInfo{ID: job, NumMaps: 1, NumReduces: 1})
		close(done)
	}()
	// JobComplete may only return once the parked Put is let go. Give a
	// JobComplete that does not wait the time to return first, so the
	// Put lands after RemoveJob.
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
	}
	close(reg.release)
	<-done
	s.prefetcher.Close() // the daemon has left Put

	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after its job completed", n)
	}
	if b := s.mrp.Attribution()["cache"]; b != 0 {
		t.Errorf("cache class holds %d bytes after its job completed", b)
	}
}
