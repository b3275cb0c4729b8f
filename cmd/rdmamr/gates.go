package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/obs"
	"rdmamr/internal/workload"
	"rdmamr/pkg/rdmamr"
)

// runProfile executes a real (non-simulated) Sort on the OSU-IB engine
// with the job's record on and renders its profile view: fetch latency
// percentiles, TTFB, ring-slot occupancy and the phase-overlap timeline.
// With -check, the emitted JSON is re-parsed exactly as a consumer would
// and the run fails unless the report proves shuffle and merge actually
// overlapped and was computed from a whole record (no span dropped), and
// unless the same record's Chrome view validates with spans from two or
// more nodes and fetch and merge events — the smoke gate behind
// `make profile-smoke`.
func runProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	nodes := fs.Int("nodes", 3, "cluster size")
	mb := fs.Float64("mb", 4, "input size in MB")
	reduces := fs.Int("reduces", 3, "reduce count")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	check := fs.Bool("check", false, "re-parse the JSON report and fail unless shuffle/merge overlap > 0, no span was dropped, and the same run's Chrome trace validates (smoke gate)")
	fs.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := rdmamr.ProfiledSort(ctx, *nodes, int64(*mb*1e6), *reduces)
	if err != nil {
		fatalf("profiled sort: %v", err)
	}
	rep := res.Profile
	raw, err := rep.JSON()
	if err != nil {
		fatalf("rendering report: %v", err)
	}
	if *asJSON || *check {
		fmt.Printf("%s\n", raw)
	}
	if !*asJSON {
		fmt.Printf("%d nodes, %.1f MB sort, %d reduces — job %s in %v\n\n",
			*nodes, *mb, *reduces, res.JobID, res.Duration.Round(time.Millisecond))
		fmt.Print(rep.Text())
	}
	if !*check {
		return
	}
	var back obs.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		fatalf("profile-check: report JSON does not round-trip: %v", err)
	}
	if back.Fetches == 0 {
		fatalf("profile-check: no fetches observed")
	}
	if len(back.Hosts) == 0 || len(back.ReduceTTFB) == 0 {
		fatalf("profile-check: per-host stats or TTFB missing")
	}
	ov := back.OverlapMs(obs.PhaseShuffle, obs.PhaseMerge)
	if ov <= 0 {
		fatalf("profile-check: shuffle/merge overlap = %.3f ms, want > 0", ov)
	}
	if back.SpansDropped > 0 {
		fatalf("profile-check: report computed from a truncated record (%d spans dropped)", back.SpansDropped)
	}
	chrome, err := res.Trace.ChromeTrace()
	if err != nil {
		fatalf("profile-check: rendering the trace: %v", err)
	}
	stats, err := obs.ValidateChromeTrace(chrome)
	if err != nil {
		fatalf("profile-check: %v", err)
	}
	if len(stats.Nodes) < 2 {
		fatalf("profile-check: trace spans %d nodes, want >= 2", len(stats.Nodes))
	}
	for _, cat := range []string{obs.CatFetch, obs.CatMerge} {
		if stats.Cats[cat] == 0 {
			fatalf("profile-check: no %q events in the trace", cat)
		}
	}
	fmt.Fprintf(os.Stderr, "profile-check ok: %d fetches, shuffle/merge overlap %.1f ms; trace %d events across %d nodes\n",
		back.Fetches, ov, stats.Events, len(stats.Nodes))
}

// runTrace executes a real (non-simulated) TeraSort with the job's record
// on and emits its Chrome view, trace-event JSON, on stdout (load it in
// ui.perfetto.dev). With -check, the emitted bytes are validated exactly
// as Perfetto would consume them and the run fails unless the trace is
// balanced, spans at least two nodes, and shows the full dispatch → map →
// fetch → merge → reduce-commit lifecycle — the smoke gate behind
// `make trace-smoke`.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	nodes := fs.Int("nodes", 3, "cluster size")
	rows := fs.Int64("rows", 20000, "TeraSort input rows (100 B each)")
	reduces := fs.Int("reduces", 3, "reduce count")
	check := fs.Bool("check", false, "validate the emitted trace (balanced events, >= 2 nodes, all lifecycle phases present) — the smoke gate")
	fs.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := rdmamr.TracedTeraSort(ctx, *nodes, *rows, *reduces)
	if err != nil {
		fatalf("traced terasort: %v", err)
	}
	raw, err := res.Trace.ChromeTrace()
	if err != nil {
		fatalf("rendering trace: %v", err)
	}
	fmt.Printf("%s\n", raw)
	if !*check {
		return
	}
	stats, err := rdmamr.ValidateChromeTrace(raw)
	if err != nil {
		fatalf("trace-check: %v", err)
	}
	if len(stats.Nodes) < 2 {
		fatalf("trace-check: spans from %d nodes, want >= 2", len(stats.Nodes))
	}
	for _, cat := range []string{"sched", "map", "fetch", "merge", "reduce"} {
		if stats.Cats[cat] == 0 {
			fatalf("trace-check: no %q spans in trace", cat)
		}
	}
	commits := 0
	for name, n := range stats.Names {
		if strings.HasPrefix(name, "commit r") {
			commits += n
		}
	}
	if commits == 0 {
		fatalf("trace-check: no reduce commit spans")
	}
	fmt.Fprintf(os.Stderr, "trace-check ok: %d events (%d durations, %d fetches) across %d nodes, job %s in %v\n",
		stats.Events, stats.Durations, stats.Completes, len(stats.Nodes),
		res.JobID, res.Duration.Round(time.Millisecond))
}

// runSched is the multi-tenant scheduler smoke behind `make sched-smoke`:
// two TeraSort jobs submitted concurrently to ONE cluster — shared slot
// pool, fair-share dispatch, speculative maps on — while a seeded chaos
// schedule kills a tracker mid-run and never revives it. Both jobs must
// finish with checksum-validated, globally sorted output. With -check the
// run also asserts the scheduler's own accounting (exactly one kill, both
// jobs admitted, no queueing at max.running=2) and exits 2 on any miss.
func runSched(args []string) {
	fs := flag.NewFlagSet("sched", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "cluster size")
	rows := fs.Int64("rows", 2000, "TeraSort input rows per job (100 B each)")
	check := fs.Bool("check", false, "assert both jobs complete byte-identical, exactly one kill, and admission accounting — the smoke gate")
	fs.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	conf := config.New()
	// 250 ms: detection stays sub-second but a loaded -race run can't
	// spuriously expire live trackers (see nodeDeathConf in faultinject).
	conf.SetInt(config.KeyTrackerExpiry, 250)
	conf.SetInt(config.KeyRDMAConnectRetries, 8)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyJTMaxRunning, 2)
	conf.SetBool(config.KeySpeculativeMaps, true)

	sched := chaos.Wrap(core.New(), nil, chaos.Event{At: 3, Kind: chaos.KillTracker})
	c, err := mapred.NewCluster(*nodes, conf, sched)
	if err != nil {
		fatalf("sched: %v", err)
	}
	defer c.Close()
	sched.SetKiller(c)

	type tenant struct {
		name, out string
		want      workload.Checksum
		h         *mapred.JobHandle
	}
	// Speculation is counted per cluster, not per job, and the two jobs
	// overlap: the count is reported once, for both.
	speculated := c.Counters().Get("mapred.map.task.attempts.speculated")
	tenants := make([]*tenant, 0, 2)
	for i, seed := range []int64{77, 104} {
		tn := &tenant{name: fmt.Sprintf("sched-%c", 'a'+i), out: fmt.Sprintf("/sched/%d/out", i)}
		paths, err := workload.TeraGen(c.FS(), fmt.Sprintf("/sched/%d/in", i), *rows, 16<<10, seed)
		if err != nil {
			fatalf("sched: teragen: %v", err)
		}
		var sample [][]byte
		if sample, tn.want, err = workload.ScanInput(c.FS(), paths, mapred.TeraInput, 100); err != nil {
			fatalf("sched: scan input: %v", err)
		}
		part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, *nodes))
		if err != nil {
			fatalf("sched: partitioner: %v", err)
		}
		tn.h, err = c.Submit(ctx, &mapred.Job{
			Name: tn.name, Input: paths, Output: tn.out,
			InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: *nodes,
		})
		if err != nil {
			fatalf("sched: submit %s: %v", tn.name, err)
		}
		tenants = append(tenants, tn)
	}

	// Both handles resolve concurrently; the scheduler interleaves the two
	// jobs on the shared slots the whole time.
	for _, tn := range tenants {
		res, err := tn.h.Wait(ctx)
		if err != nil {
			fatalf("sched: job %s: %v", tn.name, err)
		}
		if err := workload.Validate(c.FS(), tn.out, kv.BytesComparator, tn.want, true); err != nil {
			fatalf("sched: job %s output invalid: %v", tn.name, err)
		}
		fmt.Fprintf(os.Stderr, "sched: job %s (%s) valid: %d maps, %d reduces\n",
			tn.name, res.JobID, res.NumMaps, res.NumReduces)
	}
	fmt.Fprintf(os.Stderr, "sched: %d maps speculated, both jobs together\n",
		c.Counters().Get("mapred.map.task.attempts.speculated")-speculated)
	sched.Wait()
	rep := c.JobsReport()
	rep.WriteText(os.Stdout)
	if !*check {
		return
	}
	if kills := sched.Kills(); len(kills) != 1 {
		fatalf("sched-check: kills = %v, want exactly one", kills)
	}
	counters := c.Counters()
	for name, want := range map[string]int64{"admitted": 2, "completed": 2, "queued": 0} {
		if got := counters.Get("mapred.jobtracker.jobs." + name); got != want {
			fatalf("sched-check: jobs.%s = %d, want %d at max.running=2", name, got, want)
		}
	}
	done := 0
	for _, j := range rep.Jobs {
		if j.State == "succeeded" {
			done++
		}
	}
	if done != 2 {
		fatalf("sched-check: %d jobs succeeded in /jobs report, want 2", done)
	}
	fmt.Fprintf(os.Stderr, "sched-check ok: 2 tenants byte-identical across a node kill (%v), %d map + %d reduce slots shared\n",
		sched.Kills(), rep.TotalMapSlots, rep.TotalReduceSlots)
}
