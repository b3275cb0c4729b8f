// Command benchmark is the repository's one repeatable benchmark: two
// TeraSort jobs, two shuffle-only workloads, a per-layer ladder and a
// traced run. See README.md beside this file.
//
//	go run ./benchmark -seed 1 -out run.json            every workload, untraced then traced
//	go run ./benchmark -workload shuffle_bulk -trace 0  one run; last stdout line is the result JSON
//	go run ./benchmark -compare A.json B.json           B against A, per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// header makes an output file self-describing, so a trajectory of these
// files across commits can be read without the commands that made them.
type header struct {
	NProc      int                      `json:"nproc"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	GoVersion  string                   `json:"go_version"`
	GitSHA     string                   `json:"git_sha"`
	Seed       int64                    `json:"seed"`
	Seconds    int                      `json:"seconds"`
	Load1      float64                  `json:"load1"`
	Sizes      map[string]workloadSizes `json:"sizes"`
	EndToEnd   []metricDef              `json:"end_to_end"`
}

// workloadSizes records how one workload was sized for the run.
type workloadSizes struct {
	Ops     int           `json:"ops"`
	Warmup  int           `json:"warmup"`
	Tera    *teraSizes    `json:"tera,omitempty"`
	Shuffle *shuffleSizes `json:"shuffle,omitempty"`
}

type outputFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	// Only in a checkout that is itself a repository: elsewhere git would
	// walk up and read outside the directory the benchmark runs in.
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0: no warning
	return v
}

func newHeader(seed int64, seconds int, ws []workload) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Seed: seed, Seconds: seconds, Load1: load1(),
		Sizes: make(map[string]workloadSizes), EndToEnd: endToEnd,
	}
	for _, w := range ws {
		h.Sizes[w.Name] = workloadSizes{Ops: w.timedOps(seconds, false), Warmup: w.Warmup, Tera: w.Tera, Shuffle: w.Shuffle}
	}
	if h.Load1 > float64(h.NProc)/2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average %.2f exceeds nproc/2 = %.1f; timings will be noisy\n",
			h.Load1, float64(h.NProc)/2)
	}
	return h
}

// printMetrics prints every metric of a run by name with its unit.
func printMetrics(r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s): %d operations, %d attempted, %d failed, %.1f MB\n",
		r.Workload, mode, r.Ops, r.Attempted, r.Failed, float64(r.Bytes)/1e6)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Metrics[name]
		line := fmt.Sprintf("%-34s %14.4f %-7s", name, s.Value, s.Unit)
		if s.N > 0 {
			line += fmt.Sprintf(" mad %.4f n %d", s.MAD, s.N)
		}
		fmt.Println(line)
	}
}

// contractLine is the result object the driver reads from the last line
// of standard output.
func contractLine(r *runResult, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// runTraced runs the traced workload, checks the span arithmetic, and
// fills in 0 for per-layer metrics that do not apply to this workload.
func runTraced(w workload, seed int64, seconds int, ladder map[string]sample) (*runResult, error) {
	r, err := runWorkload(w, seed, seconds, true, ladder)
	if err != nil {
		return nil, err
	}
	if _, gap := layerSelfTimes(r.spans); gap > 0.05 {
		return nil, fmt.Errorf("%s: self times differ from an operation's root span by %.1f%%", w.Name, gap*100)
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = sample{Unit: d.Unit}
		}
	}
	return r, nil
}

func run() error {
	var (
		name     = flag.String("workload", "all", "workload to run, or all: every workload untraced, then the ladder, then every workload traced")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 20, "length of the timed region the repetitions are sized for")
		trace    = flag.Int("trace", 0, "with -workload <name>: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "write header and every run's metrics to this JSON file")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit non-zero if the second is outside a bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files, got %d", flag.NArg())
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}

	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}
	file := outputFile{Header: newHeader(*seed, *seconds, selected)}
	var (
		ladder map[string]sample
		spans  = make(map[string][]span) // by workload: span ids restart in every run
		last   []byte
	)
	for _, traced := range []bool{false, true} {
		if *name != "all" && traced != (*trace == 1) {
			continue
		}
		var err error
		if traced { // the ladder does not depend on the workload: run it once
			if ladder, err = runLadder(*seed); err != nil {
				return err
			}
		}
		for _, w := range selected {
			var (
				r    *runResult
				defs = endToEnd
			)
			if traced {
				r, err = runTraced(w, *seed, *seconds, ladder)
				defs = perLayer
			} else {
				r, err = runWorkload(w, *seed, *seconds, false, nil)
			}
			if err != nil {
				return err
			}
			printMetrics(r)
			file.Runs = append(file.Runs, r)
			if traced {
				spans[w.Name] = r.spans
			}
			if last, err = contractLine(r, defs); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *traceOut != "" && len(spans) > 0 {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			return err
		}
	}
	if *name != "all" {
		fmt.Println(string(last))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
