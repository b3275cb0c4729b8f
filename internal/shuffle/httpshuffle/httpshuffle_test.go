package httpshuffle_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/httpshuffle"
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
	c, err := mapred.NewCluster(nodes, conf, httpshuffle.New())
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

func runSort(t *testing.T, c *mapred.Cluster, name string, kb int64, reduces int) *mapred.JobResult {
	t.Helper()
	fs := c.FS()
	paths, err := workload.RandomWriter(fs, "/"+name+"/in", kb<<10, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: name, Input: paths, Output: "/" + name + "/out", NumReduces: reduces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/"+name+"/out", kv.BytesComparator, want, false); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCopierSpillsWhenBufferTiny(t *testing.T) {
	// A tiny shuffle buffer forces the Copier's "or in a local disk,
	// otherwise" path plus Local FS Merger compaction.
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyShuffleMemLimit, 2<<10) // 2 KB: everything spills
	conf.SetInt(config.KeyIOSortFactor, 3)
	c := newCluster(t, 3, conf)
	res := runSort(t, c, "spill", 256, 4)
	if res.Counters["shuffle.copier.disk.spills"] == 0 {
		t.Fatalf("no copier spills despite 2KB buffer: %v", res.Counters)
	}
	if res.Counters["shuffle.localfs.merges"] == 0 {
		t.Fatalf("no Local FS merges despite factor 3: %v", res.Counters)
	}
}

func TestInMemoryMergerTriggers(t *testing.T) {
	// A buffer big enough to hold segments but small enough to pass the
	// 2/3 threshold triggers the In-Memory Merger.
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 32<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyShuffleMemLimit, 48<<10)
	c := newCluster(t, 2, conf)
	res := runSort(t, c, "inmem", 512, 2)
	if res.Counters["shuffle.inmem.merges"] == 0 {
		t.Fatalf("in-memory merger never ran: %v", res.Counters)
	}
}

func TestPacketAccounting(t *testing.T) {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyHTTPPacketBytes, 1024)
	c := newCluster(t, 2, conf)
	res := runSort(t, c, "packets", 128, 2)
	bytes := res.Counters["shuffle.http.bytes"]
	packets := res.Counters["shuffle.http.packets"]
	if packets < bytes/1024 {
		t.Fatalf("packets %d < bytes/packetSize %d", packets, bytes/1024)
	}
	if res.Counters["shuffle.http.requests"] == 0 {
		t.Fatal("no servlet requests recorded")
	}
}

func TestReduceSpillsCleanedUp(t *testing.T) {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyMapSlots, 2)
	conf.SetInt(config.KeyReduceSlots, 2)
	conf.SetInt(config.KeyShuffleMemLimit, 2<<10)
	c := newCluster(t, 2, conf)
	runSort(t, c, "cleanup", 256, 2)
	for _, tt := range c.Trackers() {
		if got := tt.Store().List("reduce/"); len(got) != 0 {
			t.Fatalf("%s kept reduce spills: %v", tt.Host(), got)
		}
	}
}

// TestMergedStreamKeepsRecordsOneBehind: the barrier engine's merged
// stream is views of runs held until Close — fetched bodies in memory, or
// spilled and compacted runs read in place from the store — so every
// record is whole when returned, again after the following Next (the one
// that ends the stream included), and still at the end of the stream: the
// one-behind rule the reduce task's grouping reads by, and more.
func TestMergedStreamKeepsRecordsOneBehind(t *testing.T) {
	for _, tc := range []struct {
		name     string
		memLimit int64
	}{
		{"in memory", 0},
		{"spilled", 2 << 10}, // every body spills; factor 3 compacts them
	} {
		t.Run(tc.name, func(t *testing.T) {
			conf := config.New()
			conf.SetInt(config.KeyIOSortFactor, 3)
			if tc.memLimit > 0 {
				conf.SetInt(config.KeyShuffleMemLimit, tc.memLimit)
			}
			e := httpshuffle.New()
			c, err := mapred.NewCluster(1, conf, e)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			tt := c.Trackers()[0]
			const maps = 8
			job := mapred.JobInfo{ID: "job_onebehind", Conf: c.Conf(), Comparator: kv.BytesComparator, NumMaps: maps, NumReduces: 1}
			var want []kv.Record
			events := make(chan mapred.MapEvent, maps)
			for m := 0; m < maps; m++ {
				var recs []kv.Record
				for i := 0; i < 50+10*m; i++ {
					recs = append(recs, kv.Record{Key: []byte(fmt.Sprintf("k%04d-m%d", i, m)), Value: []byte(fmt.Sprintf("value %d of map %d", i, m))})
				}
				tt.Store().OverwriteOwned(mapred.MapOutputKey(job.ID, m, 0), kv.WriteRun(recs))
				want = append(want, recs...)
				events <- mapred.MapEvent{MapID: m, Host: tt.Host()}
			}
			close(events)
			kv.SortRecords(want, kv.BytesComparator)

			f, err := e.NewReduceFetcher(mapred.ReduceTaskInfo{Job: job, Events: events, Local: tt, Hosts: []string{tt.Host()}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			it, err := f.Fetch(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			same := func(n int, rec kv.Record, when string) {
				t.Helper()
				if !bytes.Equal(rec.Key, want[n].Key) || !bytes.Equal(rec.Value, want[n].Value) {
					t.Fatalf("record %d %s = %q/%q, want %q/%q", n, when, rec.Key, rec.Value, want[n].Key, want[n].Value)
				}
			}
			var held []kv.Record
			for it.Next() {
				n := len(held)
				if n > 0 {
					same(n-1, held[n-1], "one behind")
				}
				if n == len(want) {
					t.Fatalf("more than %d records merged", len(want))
				}
				held = append(held, it.Record())
				same(n, held[n], "as returned")
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if len(held) != len(want) {
				t.Fatalf("merged %d records, want %d", len(held), len(want))
			}
			for n, rec := range held {
				same(n, rec, "at end of stream")
			}
			if tc.memLimit > 0 && c.Counters().Get("shuffle.copier.disk.spills") == 0 {
				t.Fatal("no body spilled: the stream was not read from the store")
			}
		})
	}
}

func TestDuplicateTrackerRejected(t *testing.T) {
	e := httpshuffle.New()
	c, err := mapred.NewCluster(2, nil, e)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := e.StartTracker(c.Trackers()[0]); err == nil {
		t.Fatal("duplicate servlet registration accepted")
	}
}
