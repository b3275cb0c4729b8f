// Command rdmamr is the repository's command line. Each subcommand drives
// one surface of the library:
//
//	terasort  TeraGen → TeraSort → TeraValidate on an in-process cluster
//	sort      RandomWriter → Sort → validation, variable-size records (§IV-C)
//	figures   the paper's figures from the simulator, and the scorecard
//	sim       one simulator configuration
//	profile   a profiled Sort's shuffle report (make profile-smoke)
//	trace     a traced TeraSort's Chrome trace (make trace-smoke)
//	sched     two TeraSorts sharing one cluster across a node kill (make sched-smoke)
//
// `rdmamr <command> -h` lists a command's flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rdmamr/internal/fabric"
	"rdmamr/internal/sim"
	"rdmamr/internal/storage"
	"rdmamr/pkg/rdmamr"
)

var commands = map[string]func(args []string){
	"terasort": func(args []string) { runJob("terasort", args) },
	"sort":     func(args []string) { runJob("sort", args) },
	"figures":  runFigures,
	"sim":      runSim,
	"profile":  runProfile,
	"trace":    runTrace,
	"sched":    runSched,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fatalf("usage: rdmamr terasort|sort|figures|sim|profile|trace|sched [flags]")
	}
	commands[os.Args[1]](os.Args[2:])
}

// runJob runs the functional TeraSort or Sort end to end, on one shuffle
// engine or on each in turn, and prints wall time and shuffle counters.
func runJob(kind string, args []string) {
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	engineName := fs.String("engine", "osu-ib-rdma", "shuffle engine: "+strings.Join(rdmamr.EngineNames(), ", ")+", or all")
	nodes := fs.Int("nodes", 4, "cluster size")
	reduces := fs.Int("reduces", 0, "reduce tasks (0 = 2 per node)")
	blockKB := fs.Int64("block-kb", 1024, "HDFS block size (and input file size) in KiB")
	caching := fs.Bool("caching", true, "mapred.local.caching.enabled")
	rows := fs.Int64("rows", 100000, "terasort: TeraGen rows (100 bytes each)")
	mb := fs.Int64("mb", 64, "sort: input volume in MiB")
	fs.Parse(args)

	names := []string{*engineName}
	if *engineName == "all" {
		names = rdmamr.EngineNames()
	}
	if *reduces == 0 {
		*reduces = 2 * *nodes
	}
	for _, name := range names {
		engine, err := rdmamr.EngineByName(name)
		if err != nil {
			fatalf("%v", err)
		}
		conf := rdmamr.NewConfig()
		conf.SetInt(rdmamr.KeyBlockSize, *blockKB<<10)
		conf.SetBool(rdmamr.KeyCachingEnabled, *caching)
		cluster, err := rdmamr.NewClusterWithEngine(*nodes, conf, engine)
		if err != nil {
			fatalf("%v", err)
		}

		title, check := "TeraSort", "TeraValidate"
		mkJob, validate := rdmamr.TeraSortJob, rdmamr.TeraValidate
		var paths []string
		if kind == "sort" {
			title, check = "Sort", "validation"
			mkJob, validate = rdmamr.SortJob, rdmamr.ValidateMultiset
			paths, err = rdmamr.RandomWriter(cluster, "/in", *mb<<20, *blockKB<<10, 1)
		} else {
			paths, err = rdmamr.TeraGen(cluster, "/in", *rows, *blockKB<<10, 1)
		}
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		job, sum, err := mkJob(cluster, kind, paths, "/out", *reduces)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		start := time.Now()
		res, err := cluster.RunJob(context.Background(), job)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		elapsed := time.Since(start)
		if err := validate(cluster, "/out", sum); err != nil {
			fatalf("%s: %s FAILED: %v", name, check, err)
		}
		fmt.Printf("%s (%s): %d records (%.1f MiB) in %v — %s PASSED\n", title, name,
			sum.Count, float64(sum.Bytes)/(1<<20), elapsed.Round(time.Millisecond), check)
		fmt.Printf("  maps=%d reduces=%d\n", res.NumMaps, res.NumReduces)
		for _, k := range []string{"shuffle.http.bytes", "shuffle.http.packets", "shuffle.rdma.bytes",
			"shuffle.rdma.packets", "tracker.mapoutput.disk.reads", "cache.hits", "cache.misses", "cache.prefetched"} {
			if v := res.Counters[k]; v != 0 {
				fmt.Printf("  %-30s %d\n", k, v)
			}
		}
		cluster.Close()
	}
}

// runFigures regenerates the paper's evaluation from the simulator: every
// figure (4a–8 and the weak-scaling extension) followed by the
// paper-vs-measured scorecard of every quantitative claim in §IV. With
// -md the figures are EXPERIMENTS.md's tables.
func runFigures(args []string) {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	one := fs.String("figure", "", "print one figure: 4a, 4b, 5, 6a, 6b, 7, 8 or scaling")
	md := fs.Bool("md", false, "emit Markdown tables (for EXPERIMENTS.md)")
	score := fs.Bool("score", false, "print only the paper-vs-measured scorecard")
	timeline := fs.Bool("timeline", false, "print Figure 3's overlap timelines (vanilla vs OSU-IB)")
	fs.Parse(args)

	figures := map[string]func() sim.Figure{
		"4a": sim.Fig4a, "4b": sim.Fig4b, "5": sim.Fig5, "6a": sim.Fig6a,
		"6b": sim.Fig6b, "7": sim.Fig7, "8": sim.Fig8, "scaling": sim.FigScaling,
	}
	switch {
	case *timeline:
		out, err := sim.Fig3Timelines()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(out)
	case *one != "":
		fn, ok := figures[strings.ToLower(*one)]
		if !ok {
			fatalf("unknown figure %q (want 4a, 4b, 5, 6a, 6b, 7, 8 or scaling)", *one)
		}
		printFigure(fn(), *md)
	default:
		if !*score {
			for _, f := range append(sim.AllFigures(), sim.FigScaling()) {
				printFigure(f, *md)
			}
		}
		fmt.Println("Paper-vs-measured scorecard (§IV claims):")
		fmt.Println(sim.ScoreReport(sim.DefaultCalibration()))
	}
}

func printFigure(f sim.Figure, md bool) {
	if !md {
		fmt.Println(f)
		return
	}
	fmt.Printf("### %s\n\n", f.Name)
	fmt.Printf("| %s |", f.XLabel)
	for _, x := range f.XTicks {
		fmt.Printf(" %s |", x)
	}
	fmt.Println()
	fmt.Print("|---|")
	for range f.XTicks {
		fmt.Print("---|")
	}
	fmt.Println()
	for _, s := range f.Series {
		fmt.Printf("| %s |", s.Label)
		for _, v := range s.Seconds {
			fmt.Printf(" %.0f |", v)
		}
		fmt.Println()
	}
	fmt.Println()
}

// runSim runs one custom simulator configuration and prints its phase
// ends and I/O volumes.
func runSim(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	design := fs.String("design", "osu", "vanilla, hadoopa, osu")
	fab := fs.String("fabric", "ipoib", "1gige, 10gige, ipoib, verbs")
	store := fs.String("storage", "1disk", "1disk, 2disks, ssd")
	work := fs.String("workload", "terasort", "terasort, sort")
	nodes := fs.Int("nodes", 8, "cluster size")
	sizeGB := fs.Float64("size", 100, "sort size in GB")
	caching := fs.Bool("caching", true, "OSU PrefetchCache enabled")
	fs.Parse(args)

	d := pick("design", *design, map[string]sim.Design{"vanilla": sim.Vanilla, "hadoopa": sim.HadoopA, "osu": sim.OSUIB})
	fk := pick("fabric", *fab, map[string]fabric.Kind{"1gige": fabric.GigE1, "10gige": fabric.TenGigE, "ipoib": fabric.IPoIB, "verbs": fabric.IBVerbs})
	sk := pick("storage", *store, map[string]storage.DeviceKind{"1disk": storage.HDD1, "2disks": storage.HDD2, "ssd": storage.SSD})
	w := pick("workload", *work, map[string]sim.Workload{"terasort": sim.TeraSort, "sort": sim.Sort})
	p := sim.DefaultParams(d, fk, sk, w, *nodes, *sizeGB*1e9)
	p.Caching = *caching && d == sim.OSUIB
	res, err := sim.Run(p)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s %s on %v/%v, %d nodes, %.0f GB:\n", d, w, fk, sk, *nodes, *sizeGB)
	fmt.Printf("  job time      %8.1f s\n", res.JobSeconds)
	fmt.Printf("  map phase end %8.1f s\n", res.MapPhaseEnd)
	fmt.Printf("  shuffle end   %8.1f s\n", res.ShuffleEnd)
	fmt.Printf("  disk read     %8.1f GB\n", res.DiskBytesRead/1e9)
	fmt.Printf("  disk write    %8.1f GB\n", res.DiskBytesWrite/1e9)
	fmt.Printf("  network       %8.1f GB\n", res.NetBytes/1e9)
	if p.Caching {
		fmt.Printf("  cache         %d hits / %d misses\n", res.CacheHits, res.CacheMisses)
	}
}

func pick[T any](what, name string, from map[string]T) T {
	v, ok := from[strings.ToLower(name)]
	if !ok {
		fatalf("unknown %s %q", what, name)
	}
	return v
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
