package core

import (
	"bytes"
	"testing"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// TestEagerServePinsEvictedRun: the eager half of the protocol stages its
// chunk from cache memory it has pinned. The entry is evicted between the
// lookup and the staging copy, and another writer carves the freed slab
// span at once and fills it; the staged chunk must still be the run's
// own bytes, and the block must go back to the slab when the serve lets
// go of it (the staging block to the server's free list).
func TestEagerServePinsEvictedRun(t *testing.T) {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	cluster, err := mapred.NewCluster(1, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	s := cluster.Servers()[0].(*trackerServer)

	recs := make([]kv.Record, 64)
	for i := range recs {
		recs[i] = kv.Record{Key: []byte{byte(i)}, Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	run := kv.WriteRun(recs)
	want, _, err := kv.RunBody(run)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{JobID: "job_pin", MapID: 0, Partition: 0}
	if !s.cache.Put(key, run, PriorityPrefetch) {
		t.Fatal("put rejected")
	}
	blocks := s.mrp.OutstandingBlocks()

	got, pin, err := s.lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	if pin == nil || pin.blk == nil {
		t.Fatal("a cache hit was served from an unpinned or unregistered body")
	}
	s.cache.RemoveJob(key.JobID)
	other, err := s.mrp.AllocRemote(len(run), "cache")
	if err != nil {
		t.Fatal(err)
	}
	for i := range other.Bytes() {
		other.Bytes()[i] = 0xee
	}

	body, _, err := kv.RunBody(got)
	if err != nil {
		t.Fatalf("the run changed under the serve: %v", err)
	}
	staged, err := s.stage(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(staged.blk.Bytes()[:staged.n], want) {
		t.Fatal("the staged chunk is not the run's bytes: its block was freed and carved again under the serve")
	}
	staged.release()
	other.Free()
	// The staging block waits on the server's free list for the next
	// eager answer: what is counted is the run's pin.
	if n := s.mrp.OutstandingBlocks() - int64(s.stageBlks.idleBlocks()); n != blocks {
		t.Fatalf("%d slab blocks outstanding, recycled staging blocks aside, while the serve still pins the run, want %d", n, blocks)
	}
	pin.Release()
	if !pin.blk.Freed() {
		t.Fatal("the evicted run's block outlived the serve's pin")
	}
}
