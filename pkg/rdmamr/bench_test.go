package rdmamr_test

import (
	"context"
	"fmt"
	"testing"

	"rdmamr/pkg/rdmamr"
)

// BenchmarkTeraSort is the committed profile entry point (`make profile
// ENGINE=osu|http|hadoopa`): one TeraSort per iteration at the shape the
// repository benchmark's terasort_osu / terasort_http run (benchmark/spec.go:
// 4 nodes, 1 M rows, 1 MiB blocks, 8 reduces, 1 map and 2 reduce slots a
// node); hadoopa is the third engine at the same shape, which the
// benchmark has no end-to-end workload for yet. As there, the timed and allocation-counted region is RunJob alone;
// TeraValidate and the output clean-up run with the timer stopped.
func BenchmarkTeraSort(b *testing.B) {
	for _, e := range []struct{ name, engine string }{
		{"osu", "osu-ib-rdma"}, {"http", "vanilla-http"}, {"hadoopa", "hadoop-a"},
	} {
		b.Run(e.name, func(b *testing.B) {
			engine, err := rdmamr.EngineByName(e.engine)
			if err != nil {
				b.Fatal(err)
			}
			conf := rdmamr.NewConfig()
			conf.SetInt(rdmamr.KeyBlockSize, 1<<20)
			conf.SetInt(rdmamr.KeyMapSlots, 1)
			conf.SetInt(rdmamr.KeyReduceSlots, 2)
			cluster, err := rdmamr.NewClusterWithEngine(4, conf, engine)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			paths, err := rdmamr.TeraGen(cluster, "/tera/in", 1_000_000, 1<<20, 1)
			if err != nil {
				b.Fatal(err)
			}
			template, sum, err := rdmamr.TeraSortJob(cluster, "terasort", paths, "/tera/out", 8)
			if err != nil {
				b.Fatal(err)
			}
			// run is one job, validated and cleaned up after with the timer
			// stopped; job 0 is the warm-up the benchmark also runs.
			run := func(i int) {
				job := *template
				job.Name = fmt.Sprintf("terasort-%d", i)
				job.Output = fmt.Sprintf("/tera/out-%d", i)
				if _, err := cluster.RunJob(context.Background(), &job); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := rdmamr.TeraValidate(cluster, job.Output, sum); err != nil {
					b.Fatal(err)
				}
				fs := cluster.FS()
				for _, p := range fs.List(job.Output + "/") {
					if err := fs.Delete(p); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			run(0)
			b.SetBytes(sum.Bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				run(i)
			}
		})
	}
}
