package mapred_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/workload"
)

func testConf() *config.Config {
	c := config.New()
	c.SetInt(config.KeyBlockSize, 64<<10) // small blocks for tests
	c.SetInt(config.KeyMapSlots, 2)
	c.SetInt(config.KeyReduceSlots, 2)
	return c
}

func newTestCluster(t *testing.T, nodes int, conf *config.Config) *mapred.Cluster {
	t.Helper()
	if conf == nil {
		conf = testConf()
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

// runTeraSort generates rows of TeraGen data, sorts with a total-order
// partitioner, and validates globally sorted output with matching
// checksum. This is experiment E8's functional core.
func runTeraSort(t *testing.T, c *mapred.Cluster, rows int64, reduces int) *mapred.JobResult {
	t.Helper()
	fs := c.FS()
	name := fmt.Sprintf("terasort-%d-%d", rows, reduces)
	inDir, outDir := "/"+name+"/in", "/"+name+"/out"
	paths, err := workload.TeraGen(fs, inDir, rows, 16<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	sample, want, err := workload.ScanInput(fs, paths, mapred.TeraInput, 200)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, reduces))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name:        name,
		Input:       paths,
		Output:      outDir,
		InputFormat: mapred.TeraInput,
		Partitioner: part,
		NumReduces:  reduces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, outDir, kv.BytesComparator, want, true); err != nil {
		t.Fatalf("TeraValidate: %v", err)
	}
	return res
}

func TestTeraSortEndToEnd(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	res := runTeraSort(t, c, 2000, 8)
	if res.NumMaps < 2 {
		t.Fatalf("expected multiple splits, got %d", res.NumMaps)
	}
	if res.Counters["map.records.in"] != 2000 {
		t.Fatalf("map.records.in = %d", res.Counters["map.records.in"])
	}
	if res.Counters["reduce.records.out"] != 2000 {
		t.Fatalf("reduce.records.out = %d", res.Counters["reduce.records.out"])
	}
	if res.Counters["shuffle.http.bytes"] == 0 {
		t.Fatal("no shuffle traffic recorded")
	}
}

func TestTeraSortSingleReduce(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	runTeraSort(t, c, 300, 1)
}

func TestTeraSortEmptyInput(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	runTeraSort(t, c, 0, 2)
}

func TestSortRandomWriterEndToEnd(t *testing.T) {
	// The Sort benchmark: variable-size records, hash partitioner, no
	// global order (hash partitioning only sorts within parts).
	c := newTestCluster(t, 4, nil)
	fs := c.FS()
	paths, err := workload.RandomWriter(fs, "/sort/in", 200<<10, 32<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "sort", Input: paths, Output: "/sort/out", NumReduces: 6,
	}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/sort/out", kv.BytesComparator, want, false); err != nil {
		t.Fatalf("Sort validate: %v", err)
	}
}

func TestWordCount(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	if err := workload.WordGen(fs, "/wc/in", []string{"the", "quick", "the", "fox", "the"}, 10); err != nil {
		t.Fatal(err)
	}
	mapper := func(_, value []byte, emit func(k, v []byte)) error {
		if len(value) > 0 {
			emit(value, []byte("1"))
		}
		return nil
	}
	reducer := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		emit(key, []byte(strconv.Itoa(len(values))))
		return nil
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "wc", Input: []string{"/wc/in"}, Output: "/wc/out",
		Mapper: mapper, Reducer: reducer,
		InputFormat: mapred.LineInput{}, NumReduces: 2,
	}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, p := range fs.List("/wc/out/") {
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := kv.NewRunReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for rr.Next() {
			counts[string(rr.Record().Key)] = string(rr.Record().Value)
		}
	}
	if counts["the"] != "30" || counts["quick"] != "10" || counts["fox"] != "10" {
		t.Fatalf("counts = %v", counts)
	}
}

func TestMapperErrorFailsJob(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/err/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k")}}))
	boom := errors.New("boom")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "maperr", Input: []string{"/err/in"}, Output: "/err/out",
		Mapper: func(_, _ []byte, _ func(k, v []byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReducerErrorFailsJob(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/rerr/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k")}}))
	boom := errors.New("reduce boom")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "rerr", Input: []string{"/rerr/in"}, Output: "/rerr/out",
		Reducer: func(_ []byte, _ [][]byte, _ func(k, v []byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingInputFails(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "missing", Input: []string{"/nope"}, Output: "/o",
	})
	if err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestDuplicateJobNameRejected(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	fs := c.FS()
	_ = fs.WriteFile("/d/in", "", kv.WriteRun(nil))
	job := &mapred.Job{Name: "dup", Input: []string{"/d/in"}, Output: "/d/out1"}
	if _, err := c.RunJob(ctxT(t), job); err != nil {
		t.Fatal(err)
	}
	job2 := &mapred.Job{Name: "dup", Input: []string{"/d/in"}, Output: "/d/out2"}
	if _, err := c.RunJob(ctxT(t), job2); err == nil {
		t.Fatal("duplicate job name accepted")
	}
}

func TestNonEmptyOutputRejected(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	fs := c.FS()
	_ = fs.WriteFile("/o/in", "", kv.WriteRun(nil))
	_ = fs.WriteFile("/o/out/part-r-00000", "", nil)
	_, err := c.RunJob(ctxT(t), &mapred.Job{Name: "oo", Input: []string{"/o/in"}, Output: "/o/out"})
	if err == nil {
		t.Fatal("dirty output dir accepted")
	}
}

func TestMapOutputsCleanedUp(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	runTeraSort(t, c, 200, 2)
	for _, tt := range c.Trackers() {
		if got := tt.Store().List("mapout/"); len(got) != 0 {
			t.Fatalf("%s still holds map outputs: %v", tt.Host(), got)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	_ = fs.WriteFile("/c/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k")}}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	_, err := c.RunJob(ctx, &mapred.Job{Name: "cancelled", Input: []string{"/c/in"}, Output: "/c/out"})
	if err == nil {
		t.Fatal("cancelled job succeeded")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := mapred.NewCluster(0, nil, httpshuffle.New()); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	if _, err := mapred.NewCluster(2, nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestRunJobAfterClose(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	c.Close()
	_, err := c.RunJob(ctxT(t), &mapred.Job{Name: "x", Input: []string{"/in"}, Output: "/out"})
	if err == nil {
		t.Fatal("job on closed cluster accepted")
	}
}

func TestLocalityPreferred(t *testing.T) {
	c := newTestCluster(t, 4, testConf())
	res := runTeraSort(t, c, 3000, 4)
	local := res.Counters["map.input.blocks.local"]
	remote := res.Counters["map.input.blocks.remote"]
	if local == 0 {
		t.Fatalf("no data-local maps at all (local=%d remote=%d)", local, remote)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	run := func(withCombiner bool) (counts map[string]string, shuffleBytes int64) {
		c := newTestCluster(t, 2, nil)
		fs := c.FS()
		name := fmt.Sprintf("combine-%v", withCombiner)
		if err := workload.WordGen(fs, "/"+name+"/in", []string{"a", "b", "a", "a"}, 500); err != nil {
			t.Fatal(err)
		}
		sum := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		}
		job := &mapred.Job{
			Name: name, Input: []string{"/" + name + "/in"}, Output: "/" + name + "/out",
			Mapper: func(_, value []byte, emit func(k, v []byte)) error {
				if len(value) > 0 {
					emit(value, []byte("1"))
				}
				return nil
			},
			Reducer:     sum,
			InputFormat: mapred.LineInput{},
			NumReduces:  2,
		}
		if withCombiner {
			job.Combiner = sum
		}
		res, err := c.RunJob(ctxT(t), job)
		if err != nil {
			t.Fatal(err)
		}
		counts = map[string]string{}
		for _, p := range fs.List("/" + name + "/out/") {
			data, _ := fs.ReadFile(p)
			rr, err := kv.NewRunReader(data)
			if err != nil {
				t.Fatal(err)
			}
			for rr.Next() {
				counts[string(rr.Record().Key)] = string(rr.Record().Value)
			}
		}
		return counts, res.Counters["shuffle.http.bytes"]
	}
	plain, plainBytes := run(false)
	combined, combinedBytes := run(true)
	if plain["a"] != "1500" || plain["b"] != "500" {
		t.Fatalf("plain counts: %v", plain)
	}
	if combined["a"] != "1500" || combined["b"] != "500" {
		t.Fatalf("combined counts: %v", combined)
	}
	if combinedBytes >= plainBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d", combinedBytes, plainBytes)
	}
}

func TestCombinerErrorFailsJob(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	fs := c.FS()
	_ = fs.WriteFile("/cerr/in", "", kv.WriteRun([]kv.Record{{Key: []byte("k")}}))
	boom := errors.New("combine boom")
	_, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "cerr", Input: []string{"/cerr/in"}, Output: "/cerr/out",
		Combiner: func(_ []byte, _ [][]byte, _ func(k, v []byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestSecondarySortGroupComparator(t *testing.T) {
	// Composite keys "<station>|<temp>": sorted by full key (so values
	// arrive temperature-ordered) but grouped by station — the classic
	// secondary-sort pattern GroupComparator enables.
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	var recs []kv.Record
	for _, kvp := range [][2]string{
		{"sfo|08", ""}, {"sfo|03", ""}, {"nyc|21", ""}, {"sfo|15", ""}, {"nyc|07", ""},
	} {
		recs = append(recs, kv.Record{Key: []byte(kvp[0]), Value: []byte(kvp[1])})
	}
	_ = fs.WriteFile("/ss/in", "", kv.WriteRun(recs))

	station := func(k []byte) []byte {
		if i := bytes.IndexByte(k, '|'); i >= 0 {
			return k[:i]
		}
		return k
	}
	groupCmp := func(a, b []byte) int { return kv.BytesComparator(station(a), station(b)) }
	// Partition by station so one reducer sees a whole group.
	partitioner := stationPartitioner{station: station}

	var out []string
	reducer := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		// First key of the group carries the station's MINIMUM temp
		// because values arrive in full-key order.
		emit(station(key), key[bytes.IndexByte(key, '|')+1:])
		out = append(out, string(key))
		return nil
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "secondary", Input: []string{"/ss/in"}, Output: "/ss/out",
		Reducer: reducer, Partitioner: partitioner, GroupComparator: groupCmp,
		NumReduces: 2,
	}); err != nil {
		t.Fatal(err)
	}
	mins := map[string]string{}
	for _, p := range fs.List("/ss/out/") {
		data, _ := fs.ReadFile(p)
		rr, err := kv.NewRunReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for rr.Next() {
			mins[string(rr.Record().Key)] = string(rr.Record().Value)
		}
	}
	if mins["sfo"] != "03" || mins["nyc"] != "07" {
		t.Fatalf("per-group minima: %v", mins)
	}
}

type stationPartitioner struct{ station func([]byte) []byte }

func (p stationPartitioner) Partition(key []byte, n int) int {
	return kv.HashPartitioner{}.Partition(p.station(key), n)
}

func TestMultiWaveReduces(t *testing.T) {
	// More reduce tasks than total reduce slots forces multiple waves
	// through the slot semaphores.
	c := newTestCluster(t, 2, nil) // 2 nodes × 2 slots = 4 concurrent
	res := runTeraSort(t, c, 1000, 12)
	if res.NumReduces != 12 {
		t.Fatalf("reduces = %d", res.NumReduces)
	}
}

func TestJobResultPhases(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	res := runTeraSort(t, c, 500, 2)
	if res.Phases["map.task"] <= 0 {
		t.Fatalf("no map.task time: %v", res.Phases)
	}
	if res.Phases["reduce.apply"] <= 0 {
		t.Fatalf("no reduce.apply time: %v", res.Phases)
	}
	if _, ok := res.Phases["reduce.shuffle"]; !ok {
		t.Fatalf("no reduce.shuffle span: %v", res.Phases)
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	conf := testConf()
	conf.SetBool(config.KeySpeculativeMaps, true)
	c := newTestCluster(t, 3, conf)
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/spec/in", 600, 16<<10, 21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.TeraInput)
	if err != nil {
		t.Fatal(err)
	}

	// The first map attempt to start becomes an artificial straggler: it
	// blocks until the test releases it, long after a backup finished.
	var straggler int32
	release := make(chan struct{})
	mapper := func(key, value []byte, emit func(k, v []byte)) error {
		if atomic.CompareAndSwapInt32(&straggler, 0, 1) {
			<-release
		}
		emit(key, value)
		return nil
	}

	type outcome struct {
		res *mapred.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.RunJob(ctxT(t), &mapred.Job{
			Name: "speculative", Input: paths, Output: "/spec/out",
			Mapper: mapper, InputFormat: mapred.TeraInput, NumReduces: 3,
		})
		done <- outcome{res, err}
	}()

	// Wait until a backup attempt has been launched and completed, then
	// let the straggler go.
	deadline := time.Now().Add(30 * time.Second)
	for c.Counters().Get("map.tasks.speculative") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no speculative attempt launched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Counters["map.tasks.speculative"] == 0 {
		t.Fatalf("counters: %v", out.res.Counters)
	}
	if out.res.Counters["map.tasks.duplicate.discarded"] == 0 {
		t.Fatalf("straggler's duplicate not discarded: %v", out.res.Counters)
	}
	if err := workload.Validate(fs, "/spec/out", kv.BytesComparator, want, false); err != nil {
		t.Fatalf("output invalid with speculation: %v", err)
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	res := runTeraSort(t, c, 1000, 4)
	if res.Counters["map.tasks.speculative"] != 0 {
		t.Fatalf("speculation ran while disabled: %v", res.Counters)
	}
}

func TestMapSideSpillsMerge(t *testing.T) {
	// A tiny io.sort.mb forces several map-side spills per task; the
	// merged map outputs must still yield a valid global sort.
	conf := testConf()
	conf.SetInt(config.KeyIOSortMB, 2<<10) // 2 KB collect buffer
	c := newTestCluster(t, 3, conf)
	res := runTeraSort(t, c, 1500, 4)
	if res.Counters["map.spills"] == 0 {
		t.Fatalf("no map-side spills despite 2KB buffer: %v", res.Counters)
	}
	// Spill files must be cleaned up by the merge.
	for _, tt := range c.Trackers() {
		if got := tt.Store().List("spill/"); len(got) != 0 {
			t.Fatalf("%s kept spill files: %v", tt.Host(), got)
		}
	}
}

func TestMapSideSpillsWithCombiner(t *testing.T) {
	conf := testConf()
	conf.SetInt(config.KeyIOSortMB, 1<<10)
	c := newTestCluster(t, 2, conf)
	fs := c.FS()
	if err := workload.WordGen(fs, "/msc/in", []string{"x", "y", "x"}, 400); err != nil {
		t.Fatal(err)
	}
	sum := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		emit(key, []byte(strconv.Itoa(total)))
		return nil
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "msc", Input: []string{"/msc/in"}, Output: "/msc/out",
		Mapper: func(_, value []byte, emit func(k, v []byte)) error {
			if len(value) > 0 {
				emit(value, []byte("1"))
			}
			return nil
		},
		Reducer: sum, Combiner: sum,
		InputFormat: mapred.LineInput{}, NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["map.spills"] == 0 {
		t.Fatal("no spills")
	}
	counts := map[string]string{}
	for _, p := range fs.List("/msc/out/") {
		data, _ := fs.ReadFile(p)
		rr, err := kv.NewRunReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for rr.Next() {
			counts[string(rr.Record().Key)] = string(rr.Record().Value)
		}
	}
	if counts["x"] != "800" || counts["y"] != "400" {
		t.Fatalf("counts: %v", counts)
	}
}

func reverseOrder(a, b []byte) int { return bytes.Compare(b, a) }

// readParts returns every output part's records, cloned, in file order.
func readParts(t *testing.T, c *mapred.Cluster, dir string) [][]kv.Record {
	t.Helper()
	var parts [][]kv.Record
	for _, p := range c.FS().List(dir + "/") {
		data, err := c.FS().ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := kv.NewRunReader(data)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := kv.Drain(rr)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, recs)
	}
	return parts
}

// TestCustomComparatorBypassesPrefixSort runs a job whose Comparator
// reverses byte order over keys that differ within their first eight
// bytes. The map-side sort's key-prefix shortcut assumes byte order; were
// it applied here, map outputs would come out ascending and the reduce
// merge, which trusts them to be descending, would interleave them.
func TestCustomComparatorBypassesPrefixSort(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	rng := rand.New(rand.NewSource(9))
	const files, perFile = 3, 400
	var inputs []string
	for f := 0; f < files; f++ {
		var recs []kv.Record
		for i := 0; i < perFile; i++ {
			key := fmt.Sprintf("%04d-key", rng.Intn(150)) // duplicates within and across maps
			recs = append(recs, kv.Record{Key: []byte(key), Value: []byte(fmt.Sprintf("f%d-%03d", f, i))})
		}
		path := fmt.Sprintf("/rev/in-%d", f)
		if err := fs.WriteFile(path, "", kv.WriteRun(recs)); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, path)
	}
	if _, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "rev", Input: inputs, Output: "/rev/out",
		Comparator: reverseOrder, NumReduces: 2,
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p, recs := range readParts(t, c, "/rev/out") {
		total += len(recs)
		lastSeq := map[string]string{} // per (key, map): last value seen
		for i, r := range recs {
			if i > 0 && bytes.Compare(recs[i-1].Key, r.Key) < 0 {
				t.Fatalf("part %d not in descending key order at record %d: %q then %q", p, i, recs[i-1].Key, r.Key)
			}
			// Values of one key from one map keep emission order.
			id := string(r.Key) + "/" + string(r.Value[:2])
			if prev, ok := lastSeq[id]; ok && prev > string(r.Value) {
				t.Fatalf("part %d: key %q values out of emission order: %s then %s", p, r.Key, prev, r.Value)
			}
			lastSeq[id] = string(r.Value)
		}
	}
	if total != files*perFile {
		t.Fatalf("output has %d records, want %d", total, files*perFile)
	}
}

// TestCombinerSeesSortedGroups checks the combiner path of the map-side
// sort under a custom order: the combiner is handed each partition's
// records grouped (one call per distinct key, so combine.records.out is
// the number of distinct keys) and its output reaches the reducers sorted.
func TestCombinerSeesSortedGroups(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	fs := c.FS()
	words := []string{"pear-pear-pear", "fig", "apple-apple", "fig", "", "pear-pear-pear", "kiwi-kiwi-k", "fig"}
	const repeats = 250
	if err := workload.WordGen(fs, "/csg/in", words, repeats); err != nil {
		t.Fatal(err)
	}
	sum := func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		emit(key, []byte(strconv.Itoa(total)))
		return nil
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "csg", Input: []string{"/csg/in"}, Output: "/csg/out",
		Mapper: func(_, line []byte, emit func(k, v []byte)) error {
			emit(line, []byte("1"))
			return nil
		},
		Reducer: sum, Combiner: sum, Comparator: reverseOrder,
		InputFormat: mapred.LineInput{}, NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 5 // pear…, fig, apple…, "", kiwi…
	if in, out := res.Counters["combine.records.in"], res.Counters["combine.records.out"]; in != int64(len(words)*repeats) || out != distinct {
		t.Fatalf("combine.records in=%d out=%d, want %d and %d", in, out, len(words)*repeats, distinct)
	}
	counts := map[string]string{}
	for p, recs := range readParts(t, c, "/csg/out") {
		for i, r := range recs {
			if i > 0 && bytes.Compare(recs[i-1].Key, r.Key) <= 0 {
				t.Fatalf("part %d not strictly descending at %d: %q then %q", p, i, recs[i-1].Key, r.Key)
			}
			counts[string(r.Key)] = string(r.Value)
		}
	}
	want := map[string]string{"pear-pear-pear": "500", "fig": "750", "apple-apple": "250", "": "250", "kiwi-kiwi-k": "250"}
	if len(counts) != len(want) {
		t.Fatalf("counts: %v", counts)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%q] = %q, want %s (all: %v)", k, counts[k], v, counts)
		}
	}
}
