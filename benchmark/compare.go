package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// worsening returns by what share of a the value b is worse than a, in
// the metric's direction: positive is worse, negative better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// verdict is one compared pair.
type verdict struct {
	Workload, Metric string
	A, B, Worse      float64
	Bound            float64
	Outside          bool
}

// compareRuns judges run b against run a of the same workload: each
// end-to-end metric may worsen by at most its bound, the operations
// attempted must be the same, and no more of them may fail.
func compareRuns(defs []metricDef, a, b *runResult) []verdict {
	var out []verdict
	for _, d := range defs {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		w := worsening(d, va, vb)
		out = append(out, verdict{a.Workload, d.Name, va, vb, w, d.Bound, w > d.Bound})
	}
	out = append(out,
		verdict{a.Workload, "ops_total", float64(a.Attempted), float64(b.Attempted), 0, 0, a.Attempted != b.Attempted},
		verdict{a.Workload, "ops_failed", float64(a.Failed), float64(b.Failed), 0, 0, b.Failed > a.Failed})
	return out
}

func readOutput(path string) (*outputFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outputFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse the second is and the bound, and returns an error if any
// pair is outside its bound. Only untraced runs are compared: end-to-end
// numbers come from them alone.
func compareFiles(pathA, pathB string) error {
	fa, err := readOutput(pathA)
	if err != nil {
		return err
	}
	fb, err := readOutput(pathB)
	if err != nil {
		return err
	}
	untraced := func(f *outputFile) map[string]*runResult {
		m := make(map[string]*runResult)
		for _, r := range f.Runs {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	ra, rb := untraced(fa), untraced(fb)
	outside, compared := 0, 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, r := range fa.Runs {
		a, b := ra[r.Workload], rb[r.Workload]
		if r.Traced || b == nil {
			continue
		}
		compared++
		for _, v := range compareRuns(fa.Header.EndToEnd, a, b) {
			flag := ""
			if v.Outside {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				v.Workload, v.Metric, v.A, v.B, v.Worse*100, v.Bound*100, flag)
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	if outside > 0 {
		return fmt.Errorf("%d of the compared pairs are outside their bounds", outside)
	}
	return nil
}
