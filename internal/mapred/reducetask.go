package mapred

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"rdmamr/internal/hdfs"
	"rdmamr/internal/kv"
	"rdmamr/internal/obs"
)

// runReduceTask executes one reduce task attempt: run the engine's
// shuffle+merge pipeline, group the merged sorted stream by key, apply
// the reduce function, write an attempt-scoped temp file, and atomically
// commit it to part-r-NNNNN. The rename is the commit arbiter: when a
// duplicate (speculative or raced) attempt already committed, ours is
// deleted and committed=false returns with a nil error — failed or
// duplicate attempts can never corrupt or interleave committed output.
//
// Because grouping pulls from the fetcher's iterator, a streaming engine
// overlaps reduce with shuffle and merge for free (§III-B.4): the reduce
// function runs as soon as the first merged key group is complete.
func (c *Cluster) runReduceTask(ctx context.Context, tt *TaskTracker, info JobInfo, job *Job, reduceID, attempt int, events <-chan MapEvent, recovery *jobRecovery, losses *TrackerLossFeed, slot int) (committed bool, err error) {
	hosts := make([]string, len(c.trackers))
	for i, tr := range c.trackers {
		hosts[i] = tr.Host()
	}
	taskStart := time.Now()
	jt := tt.TraceFor(info.ID)
	if jt != nil {
		defer func() { jt.Add(taskSpan(obs.KindReduce, tt, reduceID, attempt, slot, taskStart)) }()
	}
	fetcher, err := c.engine.NewReduceFetcher(ReduceTaskInfo{
		Job: info, ReduceID: reduceID, Attempt: attempt, Events: events,
		Local: tt, Hosts: hosts,
		RecoverMap: recovery.Recover, Losses: losses,
	})
	if err != nil {
		return false, fmt.Errorf("creating fetcher: %w", err)
	}
	defer fetcher.Close()

	it, err := fetcher.Fetch(ctx)
	if err != nil {
		return false, fmt.Errorf("shuffle: %w", err)
	}
	// For a barrier engine Fetch returns only after shuffle+merge; for a
	// streaming engine this span is near zero and the cost lands in the
	// reduce span below (the overlap the design is about).
	reg := tt.reg
	reg.Counter("reduce.shuffle.ns").Add(int64(time.Since(taskStart)))
	reduceStart := time.Now()
	defer func() { reg.Counter("reduce.apply.ns").Add(int64(time.Since(reduceStart))) }()
	// The reduce window opens when the reduce function can first pull
	// merged records; with a streaming engine that is while shuffle and
	// merge are still running — the overlap the profile measures.
	if jt != nil {
		defer func() { jt.Add(taskSpan(obs.KindApply, tt, reduceID, attempt, slot, reduceStart)) }()
	}

	// Attempt-scoped temp path; the atomic rename below is the commit.
	tmp := fmt.Sprintf("%s/_temporary/%s/attempt-r%05d-%04d", job.Output, info.ID, reduceID, attempt)
	final := fmt.Sprintf("%s/part-r-%05d", job.Output, reduceID)
	w, err := c.fs.Create(tmp, tt.Host())
	if err != nil {
		return false, err
	}
	rw := kv.NewRunWriter(w)
	// abandon scraps this attempt's uncommitted temp output. The name
	// was reserved at Create, so delete it even when the writer never
	// closed — placeholders count as files in the namespace.
	abandon := func(e error) (bool, error) {
		_ = c.fs.Delete(tmp)
		return false, e
	}

	var outRecords int64
	emit := func(k, v []byte) {
		// Errors surface at Close; RunWriter latches the first failure.
		_ = rw.Write(kv.Record{Key: k, Value: v})
		outRecords++
	}
	inRecords, err := reduceGroups(ctx, it, job.GroupComparator, job.Reducer, emit)
	if err != nil {
		return abandon(err)
	}

	if err := rw.Close(); err != nil {
		return abandon(fmt.Errorf("finalizing output run: %w", err))
	}
	if err := w.Close(); err != nil {
		return abandon(fmt.Errorf("closing %s: %w", tmp, err))
	}
	// Commit: atomically promote the attempt output. Rename is the
	// first-committer-wins arbiter — ErrExists means a duplicate attempt
	// beat us and our output is discarded, not an error.
	var commitStart time.Time
	if jt != nil {
		commitStart = time.Now()
		defer func() { jt.Add(taskSpan(obs.KindReduceCommit, tt, reduceID, attempt, slot, commitStart)) }()
	}
	if err := c.fs.Rename(tmp, final); err != nil {
		if errors.Is(err, hdfs.ErrExists) {
			_, _ = abandon(nil)
			return false, nil
		}
		return abandon(fmt.Errorf("committing %s: %w", final, err))
	}
	reg.Counter("reduce.records.in").Add(inRecords)
	reg.Counter("reduce.records.out").Add(outRecords)
	reg.Counter("reduce.tasks.completed").Add(1)
	return true, nil
}

// reduceGroups hands reduce each run of consecutive records of the merged
// sorted stream it whose keys compare equal under group — the first
// record's key and every value in stream order — and returns how many
// records it read.
//
// It reads it by the one-behind rule of ReduceFetcher: the record one Next
// returned is intact until the Next after the following one starts. So the
// group's key and its newest value are held where the stream has them, and
// a group that grows copies what is about to leave that window — the value
// before the new one and, at the group's second value, its key — into one
// arena rewound at each call. A group of k values costs k − 1 copies, a
// unique key none. Growing the arena leaves earlier copies in the array
// they were written to, which they keep alive.
func reduceGroups(ctx context.Context, it kv.Iterator, group kv.Comparator, reduce Reducer, emit func(k, v []byte)) (int64, error) {
	var (
		key    []byte
		values [][]byte
		arena  []byte
		n      int64
	)
	keep := func(b []byte) []byte {
		start := len(arena)
		arena = append(arena, b...)
		return arena[start:len(arena):len(arena)]
	}
	flush := func() error {
		if len(values) == 0 {
			return nil
		}
		err := reduce(key, values, emit)
		values, arena = values[:0], arena[:0]
		if err != nil {
			return fmt.Errorf("reduce function: %w", err)
		}
		return nil
	}
	for it.Next() {
		rec := it.Record()
		if len(values) > 0 && group(rec.Key, key) == 0 {
			if len(values) == 1 {
				key = keep(key)
			}
			values[len(values)-1] = keep(values[len(values)-1])
		} else {
			if err := flush(); err != nil {
				return n, err
			}
			key = slices.Clip(rec.Key)
		}
		values = append(values, slices.Clip(rec.Value))
		n++
		if n%4096 == 0 && ctx.Err() != nil {
			return n, ctx.Err()
		}
	}
	if err := it.Err(); err != nil {
		return n, fmt.Errorf("merged stream: %w", err)
	}
	return n, flush()
}
