package mapred

import (
	"context"
	"fmt"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/obs"
)

// runMapTask executes one MapTask: read the split from HDFS (preferring
// the local replica), apply the map function, partition and sort the
// emitted records, and spill one sorted run per reduce partition to local
// disk — the map output files the shuffle serves.
func (c *Cluster) runMapTask(ctx context.Context, tt *TaskTracker, info JobInfo, job *Job, sp *split, lane string, attempt int) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	start := time.Now()
	defer func() { c.phases.Observe("map.task", time.Since(start)) }()
	if prof := tt.ProfileFor(info.ID); prof != nil {
		prof.Mark(obs.PhaseMap, sp.id, start)
		defer func() { prof.Mark(obs.PhaseMap, sp.id, time.Now()) }()
	}
	tr := tt.TraceFor(info.ID)
	if tr != nil {
		defer func(name string) {
			tr.Span(tt.Host(), lane, obs.CatMap, name, start, time.Now(), nil)
		}(fmt.Sprintf("map m%d@%d", sp.id, attempt))
	}
	// Read the split's blocks. A single-block split is parsed in the
	// DataNode's stored block itself (read-only from here to the mapper);
	// a longer one is assembled in a buffer sized once.
	var data []byte
	if len(sp.blocks) > 1 {
		size := int64(0)
		for _, bl := range sp.blocks {
			size += bl.Size
		}
		data = make([]byte, 0, size)
	}
	for _, bl := range sp.blocks {
		blk, served, err := c.fs.ReadBlock(bl, tt.Host())
		if err != nil {
			return fmt.Errorf("reading block %d of %s: %w", bl.ID, sp.path, err)
		}
		if served == tt.Host() {
			c.counters.Add("map.input.blocks.local", 1)
		} else {
			c.counters.Add("map.input.blocks.remote", 1)
		}
		if len(sp.blocks) == 1 {
			data = blk
		} else {
			data = append(data, blk...)
		}
	}
	c.counters.Add("map.input.bytes", int64(len(data)))

	it, err := job.InputFormat.Records(data)
	if err != nil {
		return fmt.Errorf("parsing split %d: %w", sp.id, err)
	}

	// Apply the map function with an io.sort.mb-bounded collect buffer:
	// when the buffer fills, the accumulated records are partitioned,
	// sorted (with the combiner applied), and spilled as intermediate
	// runs; task finish merges each partition's spill runs into the map
	// output file — Hadoop's sort-and-spill pipeline.
	spiller := newMapSpiller(c, tt, info, job, sp.id, len(data))
	defer spiller.release()
	inRecords := int64(0)
	outRecords := int64(0)
	emit := func(k, v []byte) {
		spiller.add(k, v)
		outRecords++
	}
	for it.Next() {
		rec := it.Record()
		if err := job.Mapper(rec.Key, rec.Value, emit); err != nil {
			return fmt.Errorf("map function: %w", err)
		}
		if spiller.err != nil {
			return spiller.err
		}
		inRecords++
		if inRecords%4096 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("reading split %d: %w", sp.id, err)
	}
	c.counters.Add("map.records.in", inRecords)
	c.counters.Add("map.records.out", outRecords)

	// The commit span covers finish(): merging spill runs into the final
	// map output files — the map-side "write my output where the shuffle
	// can serve it" step.
	var commitStart time.Time
	if tr != nil {
		commitStart = time.Now()
	}
	if err := spiller.finish(); err != nil {
		return err
	}
	if tr != nil {
		tr.Span(tt.Host(), lane, obs.CatMap,
			fmt.Sprintf("commit m%d@%d", sp.id, attempt), commitStart, time.Now(), nil)
	}
	c.counters.Add("map.tasks.completed", 1)
	return nil
}

// mapSpiller implements the map-side sort-and-spill pipeline: emitted
// records are copied once into a kv.SortBuffer until io.sort.mb, each
// overflow becomes one sorted spill of per-partition runs, and finish
// merges the spills per partition into the final map output file.
type mapSpiller struct {
	c     *Cluster
	tt    *TaskTracker
	info  JobInfo
	job   *Job
	mapID int

	bufLimit int64
	hint     int            // arena size estimate for each fill
	buf      *kv.SortBuffer // on loan from the cluster's pool
	views    []kv.Record    // combiner input, reused across partitions
	spills   int
	err      error
}

// newMapSpiller sizes the collect buffer for a split of splitLen bytes
// (what an identity map emits), capped at io.sort.mb. The buffer comes
// from the cluster's pool, so a slot's next task sorts in the arena and
// index its last one grew; release hands it back.
func newMapSpiller(c *Cluster, tt *TaskTracker, info JobInfo, job *Job, mapID, splitLen int) *mapSpiller {
	bufLimit := job.Conf.Int(config.KeyIOSortMB)
	ms := &mapSpiller{c: c, tt: tt, info: info, job: job, mapID: mapID, bufLimit: bufLimit,
		hint: int(max(0, min(int64(splitLen), bufLimit)))}
	ms.buf, _ = c.sortBufs.Get().(*kv.SortBuffer)
	if ms.buf == nil {
		ms.buf = &kv.SortBuffer{}
	}
	ms.resetBuf()
	return ms
}

func (ms *mapSpiller) resetBuf() {
	ms.buf.Reset(ms.job.Partitioner, ms.info.NumReduces, ms.job.Comparator, ms.hint)
}

// release returns the collect buffer to the pool. Nothing the task
// stored aliases it: runs are encoded into their own buffers and the
// combiner's output is cloned.
func (ms *mapSpiller) release() {
	ms.c.sortBufs.Put(ms.buf)
	ms.buf = nil
}

func (ms *mapSpiller) spillKey(spill, partition int) string {
	return fmt.Sprintf("spill/%s/m%05d/s%03d/p%05d", ms.info.ID, ms.mapID, spill, partition)
}

func (ms *mapSpiller) add(k, v []byte) {
	if ms.err != nil {
		return
	}
	ms.buf.Add(k, v)
	if ms.buf.EncodedBytes() >= ms.bufLimit {
		ms.err = ms.spill()
	}
}

// spill sorts and writes the buffered records as one spill (a run per
// partition).
func (ms *mapSpiller) spill() error {
	err := ms.sortedRuns(func(r int, run []byte) error {
		ms.tt.Store().OverwriteOwned(ms.spillKey(ms.spills, r), run)
		return nil
	})
	if err != nil {
		return err
	}
	ms.spills++
	ms.c.counters.Add("map.spills", 1)
	ms.resetBuf()
	return nil
}

// sortedRuns sorts the collect buffer and hands put each partition's
// encoded run, which put then owns. Without a combiner a run is encoded
// straight from the buffer; with one, the partition's records are viewed
// in place, combined, and the combiner's output is encoded.
func (ms *mapSpiller) sortedRuns(put func(partition int, run []byte) error) error {
	ms.buf.Sort()
	for r := 0; r < ms.info.NumReduces; r++ {
		var run []byte
		if ms.job.Combiner == nil {
			run = ms.buf.Run(r)
		} else {
			ms.views = ms.buf.Records(r, ms.views[:0])
			combined, err := combine(ms.views, ms.job.Combiner, ms.job.Comparator)
			if err != nil {
				return fmt.Errorf("combiner: %w", err)
			}
			ms.c.counters.Add("combine.records.in", int64(len(ms.views)))
			ms.c.counters.Add("combine.records.out", int64(len(combined)))
			run = kv.WriteRun(combined)
		}
		if err := put(r, run); err != nil {
			return err
		}
	}
	return nil
}

// storeOutput commits one partition of the final map output.
func (ms *mapSpiller) storeOutput(r int, run []byte) error {
	if err := ms.tt.storeMapOutput(ms.info.ID, ms.mapID, r, run); err != nil {
		return fmt.Errorf("storing partition %d: %w", r, err)
	}
	ms.c.counters.Add("map.output.bytes", int64(len(run)))
	return nil
}

// finish produces the final map output: straight from the collect buffer
// when nothing spilled — encoded into the engine's run allocator's memory
// when there is no combiner (storeSortedRun) — otherwise a per-partition
// merge of all spill runs.
func (ms *mapSpiller) finish() error {
	if ms.err != nil {
		return ms.err
	}
	if ms.spills == 0 && ms.job.Combiner == nil {
		ms.buf.Sort()
		for r := 0; r < ms.info.NumReduces; r++ {
			n := ms.tt.storeSortedRun(ms.info.ID, ms.mapID, r, ms.buf)
			ms.c.counters.Add("map.output.bytes", int64(n))
		}
		return nil
	}
	if ms.spills == 0 {
		return ms.sortedRuns(ms.storeOutput)
	}
	// Final spill of the residue, then merge spills per partition.
	if ms.buf.Len() > 0 {
		if err := ms.spill(); err != nil {
			return err
		}
	}
	store := ms.tt.Store()
	for r := 0; r < ms.info.NumReduces; r++ {
		runs := make([][]byte, 0, ms.spills)
		for s := 0; s < ms.spills; s++ {
			key := ms.spillKey(s, r)
			data, err := store.Get(key)
			if err != nil {
				return fmt.Errorf("reading spill %d/%d: %w", s, r, err)
			}
			runs = append(runs, data)
			_ = store.Delete(key)
		}
		merged, err := kv.MergeRuns(ms.job.Comparator, runs...)
		if err != nil {
			return fmt.Errorf("merging spills for partition %d: %w", r, err)
		}
		if err := ms.storeOutput(r, merged); err != nil {
			return err
		}
	}
	return nil
}

// combine applies the combiner to one sorted partition, grouping equal
// keys exactly as the reduce side will.
func combine(recs []kv.Record, combiner Reducer, cmp kv.Comparator) ([]kv.Record, error) {
	var out []kv.Record
	emit := func(k, v []byte) {
		out = append(out, kv.Record{Key: k, Value: v}.Clone())
	}
	var values [][]byte
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && cmp(recs[i].Key, recs[j].Key) == 0 {
			j++
		}
		values = values[:0]
		for _, r := range recs[i:j] {
			values = append(values, r.Value)
		}
		if err := combiner(recs[i].Key, values, emit); err != nil {
			return nil, err
		}
		i = j
	}
	// The combiner may emit arbitrary keys; re-sort to preserve the
	// sorted-partition invariant the shuffle merge relies on.
	kv.SortRecords(out, cmp)
	return out, nil
}
