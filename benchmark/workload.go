package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// sample is one reported metric. MAD is the median absolute deviation of
// the N observations Value is the median of; both are 0 for a metric
// that is a single count or ratio.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	MAD   float64 `json:"mad,omitempty"`
	N     int     `json:"n,omitempty"`
}

// medianOf summarises observations (scaled by scale into unit).
func medianOf(xs []float64, scale float64, unit string) sample {
	return sample{Value: median(xs) * scale, Unit: unit, MAD: mad(xs) * scale, N: len(xs)}
}

// workload is one set of inputs the benchmark runs. Exactly one of Tera
// and Shuffle is set.
type workload struct {
	Name string
	Why  string
	// OpsPer20s is how many timed operations (jobs or rounds) a run of
	// -seconds 20 performs on the 2-core reference box; other run lengths
	// scale it. A fixed count, not a deadline, ends a run, so that
	// operation counts, packets and bytes repeat exactly for one seed.
	OpsPer20s int
	// Warmup operations run at the end of every set-up, checked but
	// untimed: they fill the caches, the connection plane and the pools.
	Warmup  int
	Tera    *teraSizes
	Shuffle *shuffleSizes
}

// instance is a workload that has been set up and can be measured.
type instance interface {
	// op runs one timed operation and returns how many of its attempts
	// failed. A non-nil tracer switches harness spans (and, for jobs, the
	// program's own profile) on for this operation.
	op(ctx context.Context, tr *tracer) int
	// check verifies the last operation's output outside the timed region
	// and returns how many more attempts it found wrong.
	check(tr *tracer) int
	attemptsPerOp() int
	bytesPerOp() int64
	counters() map[string]int64
	// assertPath fails when the counter change over the timed region shows
	// that the workload did not take the path it exists to measure.
	assertPath(delta map[string]int64) error
	// layerMetrics adds the workload's own per-layer numbers.
	layerMetrics(m map[string]sample, ops int, delta map[string]int64, spans []span)
	close()
}

func (w workload) setup(seed int64, tr *tracer) (instance, error) {
	op := tr.newOp()
	root := tr.begin(op, 0, "benchmark", "setup")
	defer tr.end(root)
	var (
		inst instance
		err  error
	)
	if w.Tera != nil {
		inst, err = setupTera(*w.Tera, seed, tr, op, root)
	} else {
		inst, err = setupShuffle(*w.Shuffle, seed, tr, op, root)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sp := tr.begin(op, root, "benchmark", "warmup")
	for i := 0; i < w.Warmup; i++ {
		if failed := inst.op(ctx, nil) + inst.check(nil); failed > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: %d attempts failed in warm-up operation %d", w.Name, failed, i)
		}
	}
	tr.end(sp)
	return inst, nil
}

// opTimeout turns a hung operation into a failed one.
const opTimeout = 2 * time.Minute

// setupsPerRun set-ups are timed in an untraced run and their median
// reported, so one slow allocation does not decide setup_s.
const setupsPerRun = 3

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Bytes     int64             `json:"bytes"`
	Metrics   map[string]sample `json:"metrics"`
	// Counters is the change in the cluster's counters over the timed
	// region: for one seed, the byte and packet counts in it repeat.
	Counters map[string]int64 `json:"counters"`
	spans    []span
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

func counterDelta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64)
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// timedOps scales the workload's repetitions to the run length. A traced
// run does half the repetitions, alternating spans off and on, so one
// quarter of the untraced repetitions run traced.
func (w workload) timedOps(seconds int, traced bool) int {
	ops := w.OpsPer20s * seconds / 20
	if traced {
		ops /= 2
	}
	return max(ops, 2)
}

// runWorkload sets the workload up, runs its timed operations one at a
// time (a closed loop of one client) and returns what it measured:
// every end-to-end metric when traced is false, the workload's per-layer
// metrics when it is true. ladder, when non-nil, is merged into a traced
// run's metrics.
func runWorkload(w workload, seed int64, seconds int, traced bool, ladder map[string]sample) (*runResult, error) {
	var tr *tracer
	nSetups := setupsPerRun
	if traced {
		tr = newTracer()
		nSetups = 1
	}
	var (
		inst       instance
		setupTimes []float64
	)
	for k := 0; k < nSetups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, tr); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.close()

	ops := w.timedOps(seconds, traced)
	// Fixed work ends the run; the cap on summed operation time only bounds
	// it on a machine much slower than the one the counts were sized on.
	timeCap := float64(time.Duration(seconds)*time.Second) * 1.5
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Duration(seconds)*time.Second+opTimeout)
	defer cancel()

	runtime.GC()
	before := inst.counters()
	res := &runResult{Workload: w.Name, Traced: traced, Metrics: make(map[string]sample)}
	var wallNs, tracedNs, untracedNs []float64
	var cpuS, allocB, spent float64
	for i := 0; i < ops; i++ {
		if spent > timeCap {
			fmt.Fprintf(os.Stderr, "benchmark: %s: stopping after %d of %d operations: over the time cap\n", w.Name, i, ops)
			break
		}
		opTr := tr
		if i%2 == 0 {
			opTr = nil
		}
		cpu0, alloc0 := cpuSeconds(), totalAlloc()
		t0 := time.Now()
		failed := inst.op(ctx, opTr)
		dt := float64(time.Since(t0))
		cpuS += cpuSeconds() - cpu0
		allocB += totalAlloc() - alloc0
		failed += inst.check(opTr)
		res.Ops++
		res.Failed += failed
		wallNs = append(wallNs, dt)
		spent += dt
		if opTr != nil {
			tracedNs = append(tracedNs, dt)
		} else {
			untracedNs = append(untracedNs, dt)
		}
	}
	res.Counters = counterDelta(inst.counters(), before)
	res.Attempted = res.Ops * inst.attemptsPerOp()
	res.Bytes = int64(res.Ops) * inst.bytesPerOp()
	if err := inst.assertPath(res.Counters); err != nil {
		return nil, fmt.Errorf("%s: did not take its intended path: %w", w.Name, err)
	}

	gb := float64(res.Bytes) / 1e9
	if !traced {
		res.Metrics["op_ms_p50"] = medianOf(wallNs, 1e-6, "ms")
		res.Metrics["mb_per_s"] = sample{Value: float64(res.Bytes) / 1e6 / (spent / 1e9), Unit: "MB/s"}
		res.Metrics["cpu_s_per_gb"] = sample{Value: cpuS / gb, Unit: "s/GB"}
		res.Metrics["alloc_mb_per_gb"] = sample{Value: allocB / 1e6 / gb, Unit: "MB/GB"}
		res.Metrics["setup_s"] = medianOf(setupTimes, 1, "s")
		return res, nil
	}

	res.spans = tr.snapshot()
	for name, s := range ladder {
		res.Metrics[name] = s
	}
	m := res.Metrics
	inst.layerMetrics(m, res.Ops, res.Counters, res.spans)
	m["obs.tracing_overhead_pct"] = sample{Value: (median(tracedNs)/median(untracedNs) - 1) * 100, Unit: "%", N: len(tracedNs)}
	p90, _, ok := percentile(wallNs, 0.90)
	if !ok {
		p90 = 0 // too few operations beyond it for the value to repeat
	}
	m["tail.op_ms_p90"] = sample{Value: p90 / 1e6, Unit: "ms", N: len(wallNs)}
	return res, nil
}
