package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/storage"
)

// collectMapOutput drives one map task's collect → sort → spill → merge
// pipeline over recs with the given io.sort.mb and returns the map output
// run of every partition plus the number of spills it took.
func collectMapOutput(t *testing.T, ioSortBytes int64, recs []kv.Record, reduces int) ([][]byte, int64) {
	t.Helper()
	conf := config.New()
	conf.SetInt(config.KeyIOSortMB, ioSortBytes)
	job, err := (&Job{Name: "j", Input: []string{"/in"}, Output: "/out"}).withDefaults(conf)
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{}
	tt := newTaskTracker("node0", storage.NewLocalStore())
	info := JobInfo{ID: "job_t", Conf: conf, Comparator: job.Comparator, NumMaps: 1, NumReduces: reduces}

	size := 0
	for _, r := range recs {
		size += len(r.Key) + len(r.Value)
	}
	ms := newMapSpiller(c, tt, info, job, 0, size)
	for _, r := range recs {
		ms.add(r.Key, r.Value)
	}
	if err := ms.finish(); err != nil {
		t.Fatal(err)
	}
	if left := tt.Store().List("spill/"); len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
	runs := make([][]byte, reduces)
	var bytesOut int64
	for r := range runs {
		if runs[r], err = tt.MapOutput(info.ID, 0, r); err != nil {
			t.Fatal(err)
		}
		bytesOut += int64(len(runs[r]))
	}
	if got := tt.Counters().Counter("map.output.bytes").Get(); got != bytesOut {
		t.Fatalf("map.output.bytes = %d, stored %d", got, bytesOut)
	}
	return runs, tt.Counters().Counter("map.spills").Get()
}

// TestMultiSpillMapOutputEqualsNoSpill forces io.sort.mb far below the
// split so the task spills many times, and requires the merged map output
// to be byte-identical to the output of the same records collected in one
// buffer. A third of the keys come from a pool of forty, so most spills
// hold several records of one key with different values: the spill merge
// is stable, which keeps them in emission order across spills.
func TestMultiSpillMapOutputEqualsNoSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var recs []kv.Record
	for i := 0; i < 4000; i++ {
		key := make([]byte, 10)
		value := make([]byte, rng.Intn(120))
		rng.Read(key)
		rng.Read(value)
		if i%3 == 0 {
			key = []byte(fmt.Sprintf("hot-key-%02d", rng.Intn(40)))
		}
		recs = append(recs, kv.Record{Key: key, Value: value})
	}
	recs = append(recs, recs[17], recs[17], recs[2900])

	const reduces = 4
	whole, spills := collectMapOutput(t, 100<<20, recs, reduces)
	if spills != 0 {
		t.Fatalf("one-buffer run spilled %d times", spills)
	}
	spilled, spills := collectMapOutput(t, 16<<10, recs, reduces)
	if spills < 10 {
		t.Fatalf("map.spills = %d, want a many-spill task", spills)
	}
	for r := range whole {
		if err := kv.VerifyChecksum(spilled[r]); err != nil {
			t.Fatalf("partition %d: %v", r, err)
		}
		if !bytes.Equal(spilled[r], whole[r]) {
			t.Fatalf("partition %d: %d-spill output differs from the no-spill output (%d vs %d bytes)",
				r, spills, len(spilled[r]), len(whole[r]))
		}
	}
}

// TestMapOutputAllocBudget: serving a stored partition costs the store key
// it is looked up by and not one byte of the partition — the run returned
// is the stored run, every time, and the disk read is still counted.
func TestMapOutputAllocBudget(t *testing.T) {
	tt := newTaskTracker("node0", storage.NewLocalStore())
	run := kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: make([]byte, 1<<20)}})
	if err := tt.storeMapOutput("job_t", 3, 1, run); err != nil {
		t.Fatal(err)
	}
	var got []byte
	allocated := alloctest.Bytes(3, func() {
		var err error
		if got, err = tt.MapOutput("job_t", 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocated > 128 {
		t.Errorf("MapOutput of a %d-byte partition allocated %d bytes, budget 128 (the key)", len(run), allocated)
	}
	if &got[0] != &run[0] || len(got) != len(run) || cap(got) != len(got) {
		t.Fatal("MapOutput did not return the stored run, capacity clamped")
	}
	if reads := tt.Counters().Counter("tracker.mapoutput.disk.reads").Get(); reads != 3 {
		t.Fatalf("tracker.mapoutput.disk.reads = %d after 3 reads", reads)
	}
}
