package mapred_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
)

// assertNoJobDebris checks the invariant a failed or cancelled job must
// uphold: nothing under the output directory (no committed parts, no
// _temporary attempt files) and nothing left on tracker disks.
func assertNoJobDebris(t *testing.T, c *mapred.Cluster, outDir string) {
	t.Helper()
	if got := c.FS().List(outDir + "/"); len(got) != 0 {
		t.Fatalf("failed job left output files: %v", got)
	}
	for _, tt := range c.Trackers() {
		for _, prefix := range []string{"mapout/", "spill/"} {
			if got := tt.Store().List(prefix); len(got) != 0 {
				t.Fatalf("%s still holds %s files: %v", tt.Host(), prefix, got)
			}
		}
	}
}

func TestFailedJobLeavesOutputEmpty(t *testing.T) {
	// One reduce partition fails permanently while others may have
	// already committed their part files; the failed job must remove
	// everything under /out, committed parts included.
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/fail/in", "", kv.WriteRun([]kv.Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}))
	boom := errors.New("partition poison")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "cleanup-on-fail", Input: []string{"/fail/in"}, Output: "/fail/out",
		NumReduces: 2,
		Reducer: func(key []byte, values [][]byte, emit func(k, v []byte)) error {
			if string(key) == "b" {
				return boom
			}
			for _, v := range values {
				emit(key, v)
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	assertNoJobDebris(t, c, "/fail/out")
}

func TestCancelledJobLeavesOutputEmpty(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/cancel/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: []byte("v")}}))
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	_, err := c.RunJob(ctx, &mapred.Job{
		Name: "cleanup-on-cancel", Input: []string{"/cancel/in"}, Output: "/cancel/out",
		Mapper: func(key, value []byte, emit func(k, v []byte)) error {
			cancel() // the user aborts mid-map
			emit(key, value)
			return nil
		},
	})
	if err == nil {
		t.Fatal("cancelled job reported success")
	}
	assertNoJobDebris(t, c, "/cancel/out")
}

func TestReduceRetrySucceedsWithinBudget(t *testing.T) {
	// The reducer fails its first two attempts and then behaves; with
	// MaxTaskAttempts = 4 the job must recover and produce correct output.
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/rretry/in", "", kv.WriteRun([]kv.Record{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte("k2"), Value: []byte("v2")},
	}))
	var calls int32
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "reduce-retry", Input: []string{"/rretry/in"}, Output: "/rretry/out",
		NumReduces: 1,
		Reducer: func(key []byte, values [][]byte, emit func(k, v []byte)) error {
			if atomic.AddInt32(&calls, 1) <= 2 {
				return errors.New("transient reduce fault")
			}
			for _, v := range values {
				emit(key, v)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("job should survive two reduce failures: %v", err)
	}
	if res.Counters["reduce.task.attempts.failed"] != 2 {
		t.Fatalf("reduce.task.attempts.failed = %d, want 2 (counters %v)",
			res.Counters["reduce.task.attempts.failed"], res.Counters)
	}
	if res.Counters["reduce.task.attempts.retried"] != 2 {
		t.Fatalf("reduce.task.attempts.retried = %d, want 2", res.Counters["reduce.task.attempts.retried"])
	}
	if res.Counters["reduce.records.out"] != 2 {
		t.Fatalf("reduce.records.out = %d, want 2", res.Counters["reduce.records.out"])
	}
	if len(res.OutputFiles) != 1 || !strings.HasSuffix(res.OutputFiles[0], "part-r-00000") {
		t.Fatalf("output files = %v", res.OutputFiles)
	}
	// The commit protocol must not leave attempt temp files behind.
	if tmp := fs.List("/rretry/out/_temporary/"); len(tmp) != 0 {
		t.Fatalf("temp attempt files survived: %v", tmp)
	}
}

func TestReduceRetryExhaustionFailsJob(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/rexh/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: []byte("v")}}))
	boom := errors.New("permanent reduce fault")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "reduce-exhaust", Input: []string{"/rexh/in"}, Output: "/rexh/out",
		NumReduces: 1,
		Reducer: func(_ []byte, _ [][]byte, _ func(k, v []byte)) error {
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	// MaxTaskAttempts is 4; the error must say which reduce failed,
	// where, and how many attempts were burned.
	if !strings.Contains(err.Error(), "reduce 0 on node") ||
		!strings.Contains(err.Error(), "failed after 4 attempts") {
		t.Fatalf("exhaustion error should name the reduce, host, and attempt count: %v", err)
	}
	assertNoJobDebris(t, c, "/rexh/out")
}

func TestReduceSpeculationFirstFinisherWins(t *testing.T) {
	conf := testConf()
	conf.SetBool(config.KeySpeculativeReduces, true)
	c := newTestCluster(t, 3, conf)
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/rspec/in", 600, 16<<10, 33)
	if err != nil {
		t.Fatal(err)
	}
	sample, want, err := workload.ScanInput(fs, paths, mapred.TeraInput, 200)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 3))
	if err != nil {
		t.Fatal(err)
	}

	// The first reduce invocation to run becomes an artificial straggler:
	// it blocks until the test releases it, long after its speculative
	// backup committed the partition.
	var straggler int32
	release := make(chan struct{})
	reducer := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		if atomic.CompareAndSwapInt32(&straggler, 0, 1) {
			<-release
		}
		for _, v := range values {
			emit(key, v)
		}
		return nil
	}

	type outcome struct {
		res *mapred.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.RunJob(ctxT(t), &mapred.Job{
			Name: "reduce-speculative", Input: paths, Output: "/rspec/out",
			InputFormat: mapred.TeraInput, Partitioner: part,
			Reducer: reducer, NumReduces: 3,
		})
		done <- outcome{res, err}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for c.Counters().Get("reduce.tasks.speculative") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no speculative reduce attempt launched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Counters["reduce.tasks.speculative"] == 0 {
		t.Fatalf("counters: %v", out.res.Counters)
	}
	if out.res.Counters["reduce.tasks.duplicate.discarded"] == 0 {
		t.Fatalf("losing attempt's commit was not discarded: %v", out.res.Counters)
	}
	// The rename arbiter guarantees exactly one committed part per
	// partition regardless of how many attempts raced.
	if len(out.res.OutputFiles) != 3 {
		t.Fatalf("output files = %v, want exactly 3 parts", out.res.OutputFiles)
	}
	if err := workload.Validate(fs, "/rspec/out", kv.BytesComparator, want, true); err != nil {
		t.Fatalf("output invalid with reduce speculation: %v", err)
	}
}

func TestReduceSpeculationOffByDefault(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	res := runTeraSort(t, c, 400, 3)
	if res.Counters["reduce.tasks.speculative"] != 0 {
		t.Fatalf("reduce speculation ran while disabled: %v", res.Counters)
	}
}
