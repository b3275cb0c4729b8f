package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"rdmamr/internal/config"
	"rdmamr/pkg/rdmamr"
)

// teraSizes sizes a TeraSort job workload. Only keys the paper itself
// exposes are set (block size, slots); fetch arm, zero-copy, ring depth
// and every other tunable stay at the defaults users get.
type teraSizes struct {
	Engine      string `json:"engine"`
	Nodes       int    `json:"nodes"`
	Rows        int64  `json:"rows"`
	BlockBytes  int64  `json:"block_bytes"`
	Reduces     int    `json:"reduces"`
	MapSlots    int64  `json:"map_slots"`
	ReduceSlots int64  `json:"reduce_slots"`
}

type teraInstance struct {
	sz       teraSizes
	cluster  *rdmamr.Cluster
	job      rdmamr.Job // template: Name, Output and Conf vary per job
	sum      rdmamr.Checksum
	profConf *rdmamr.Config
	seq      int

	// The job in flight between op and check.
	curOp, curRoot int
	curOut         string
	curErr         error

	results []*rdmamr.JobResult
}

func setupTera(sz teraSizes, seed int64, tr *tracer, op, parent int) (instance, error) {
	engine, err := rdmamr.EngineByName(sz.Engine)
	if err != nil {
		return nil, err
	}
	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, sz.BlockBytes)
	conf.SetInt(rdmamr.KeyMapSlots, sz.MapSlots)
	conf.SetInt(rdmamr.KeyReduceSlots, sz.ReduceSlots)

	sp := tr.begin(op, parent, "mapred", "NewCluster")
	cluster, err := rdmamr.NewClusterWithEngine(sz.Nodes, conf, engine)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t := &teraInstance{sz: sz, cluster: cluster}
	// The traced jobs additionally switch on the program's own shuffle
	// profile, per job, so the obs.* numbers come from JobResult.Profile.
	t.profConf = conf.Clone()
	t.profConf.SetBool(config.KeyObsProfile, true)

	sp = tr.begin(op, parent, "workload", "TeraGen")
	paths, err := rdmamr.TeraGen(cluster, "/tera/in", sz.Rows, sz.BlockBytes, seed)
	tr.end(sp)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	sp = tr.begin(op, parent, "workload", "TeraSortJob")
	job, sum, err := rdmamr.TeraSortJob(cluster, "terasort", paths, "/tera/out", sz.Reduces)
	tr.end(sp)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	t.job, t.sum = *job, sum
	return t, nil
}

func (t *teraInstance) op(ctx context.Context, tr *tracer) int {
	job := t.job
	job.Name = fmt.Sprintf("terasort-%d", t.seq)
	job.Output = fmt.Sprintf("/tera/out-%d", t.seq)
	t.seq++
	if tr != nil {
		job.Conf = t.profConf
	}
	t.curOut = job.Output
	t.curOp = tr.newOp()
	t.curRoot = tr.begin(t.curOp, 0, "benchmark", "job")
	var before map[string]int64
	if tr != nil {
		before = t.counters()
	}
	sp := tr.begin(t.curOp, t.curRoot, "mapred", "RunJob")
	res, err := t.cluster.RunJob(ctx, &job)
	tr.end(sp)
	if tr != nil {
		tr.setCounters(sp, counterDelta(t.counters(), before))
	}
	t.curErr = err
	if err == nil {
		t.results = append(t.results, res)
	}
	return 0 // a failed job is counted once, in check
}

// check runs TeraValidate on the job's output and deletes it, so every
// job starts from the same file system.
func (t *teraInstance) check(tr *tracer) int {
	defer tr.end(t.curRoot)
	failed := 0
	err := t.curErr
	if err == nil {
		sp := tr.begin(t.curOp, t.curRoot, "workload", "TeraValidate")
		err = rdmamr.TeraValidate(t.cluster, t.curOut, t.sum)
		tr.end(sp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", t.curOut, err)
		failed = 1
	}
	sp := tr.begin(t.curOp, t.curRoot, "hdfs", "Delete")
	fs := t.cluster.FS()
	for _, p := range fs.List(t.curOut + "/") {
		if err := fs.Delete(p); err != nil && failed == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: deleting %s: %v\n", p, err)
			failed = 1
		}
	}
	tr.end(sp)
	return failed
}

func (t *teraInstance) attemptsPerOp() int { return 1 }
func (t *teraInstance) bytesPerOp() int64  { return t.sum.Bytes }
func (t *teraInstance) counters() map[string]int64 {
	return t.cluster.Counters().Snapshot()
}
func (t *teraInstance) close() { t.cluster.Close() }

func (t *teraInstance) assertPath(d map[string]int64) error {
	rdma := d["shuffle.rdma.bytes"]
	switch t.sz.Engine {
	case "osu-ib-rdma":
		if rdma <= 0 {
			return errors.New("shuffle.rdma.bytes == 0 on the RDMA engine")
		}
	case "vanilla-http":
		if rdma != 0 {
			return fmt.Errorf("shuffle.rdma.bytes = %d on the HTTP engine, want 0", rdma)
		}
		if d["shuffle.http.bytes"] <= 0 {
			return errors.New("shuffle.http.bytes == 0 on the HTTP engine")
		}
	}
	return nil
}

func (t *teraInstance) layerMetrics(m map[string]sample, ops int, d map[string]int64, spans []span) {
	counterMetrics(m, ops, d, t.cluster)

	// mapred: JobResult.Phases sums task wall time per phase over a job's
	// tasks; report the per-job median of each sum.
	phase := func(name string) []float64 {
		xs := make([]float64, len(t.results))
		for i, r := range t.results {
			xs[i] = r.Phases[name].Seconds()
		}
		return xs
	}
	mapS, shufS, applyS := phase("map.task"), phase("reduce.shuffle"), phase("reduce.apply")
	m["mapred.map_task_s"] = medianOf(mapS, 1, "s")
	m["mapred.reduce_shuffle_s"] = medianOf(shufS, 1, "s")
	m["mapred.reduce_apply_s"] = medianOf(applyS, 1, "s")
	// Scheduling overhead: job wall-clock minus the longer of the map and
	// reduce task chains, each chain being its summed task time spread
	// over the slots that ran it. Reported as computed; a streaming
	// engine's reduce chain includes waiting for maps.
	mapSlots := float64(int64(t.sz.Nodes) * t.sz.MapSlots)
	redSlots := float64(min(int64(t.sz.Reduces), int64(t.sz.Nodes)*t.sz.ReduceSlots))
	over := make([]float64, len(t.results))
	for i, r := range t.results {
		over[i] = r.Duration.Seconds() - max(mapS[i]/mapSlots, (shufS[i]+applyS[i])/redSlots)
	}
	m["mapred.sched_overhead_s"] = medianOf(over, 1, "s")

	// obs: from the program's own profile of the traced jobs.
	var p50, p99, ttfb, stall, overlap []float64
	for _, r := range t.results {
		rep := r.Profile
		if rep == nil {
			continue
		}
		for _, h := range rep.Hosts {
			p50 = append(p50, h.P50Us)
			p99 = append(p99, h.P99Us)
		}
		ttfb = append(ttfb, rep.TTFBMs)
		stall = append(stall, rep.MergeStallMs)
		for _, o := range rep.Overlaps {
			if o.A == "shuffle" && o.B == "merge" {
				overlap = append(overlap, o.Ms)
			}
		}
	}
	m["obs.fetch_p50_us"] = medianOf(p50, 1, "us")
	m["obs.fetch_p99_us"] = medianOf(p99, 1, "us")
	m["obs.ttfb_ms"] = medianOf(ttfb, 1, "ms")
	m["obs.merge_stall_ms"] = medianOf(stall, 1, "ms")
	m["obs.shuffle_merge_overlap_ms"] = medianOf(overlap, 1, "ms")

	// workload: generator and validator throughput from the harness spans.
	mb := float64(t.sum.Bytes) / 1e6
	rate := func(name string) sample {
		ds := durations(spans, name)
		for i, d := range ds {
			ds[i] = mb / (d / 1e9)
		}
		return medianOf(ds, 1, "MB/s")
	}
	m["workload.teragen_mb_per_s"] = rate("TeraGen")
	m["workload.validate_mb_per_s"] = rate("TeraValidate")
}
