// Command terasort runs the functional TeraSort benchmark end-to-end on
// an in-process cluster: TeraGen → TeraSort → TeraValidate, with a
// selectable shuffle engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rdmamr/pkg/rdmamr"
)

func main() {
	var (
		engineName = flag.String("engine", "osu-ib-rdma", "shuffle engine: vanilla-http, hadoop-a, osu-ib-rdma")
		nodes      = flag.Int("nodes", 4, "cluster size")
		rows       = flag.Int64("rows", 100000, "TeraGen rows (100 bytes each)")
		reduces    = flag.Int("reduces", 0, "reduce tasks (0 = 2 per node)")
		blockKB    = flag.Int64("block-kb", 1024, "HDFS block size in KiB")
		caching    = flag.Bool("caching", true, "mapred.local.caching.enabled")
	)
	flag.Parse()

	engine, err := rdmamr.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, *blockKB<<10)
	conf.SetBool(rdmamr.KeyCachingEnabled, *caching)
	cluster, err := rdmamr.NewClusterWithEngine(*nodes, conf, engine)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	r := *reduces
	if r == 0 {
		r = *nodes * 2
	}
	fmt.Printf("TeraGen: %d rows (%.1f MiB) across %d nodes...\n", *rows, float64(*rows*100)/(1<<20), *nodes)
	paths, err := rdmamr.TeraGen(cluster, "/tera/in", *rows, *blockKB<<10, time.Now().UnixNano()%1e6)
	if err != nil {
		log.Fatal(err)
	}
	job, checksum, err := rdmamr.TeraSortJob(cluster, "terasort", paths, "/tera/out", r)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := cluster.RunJob(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := rdmamr.TeraValidate(cluster, "/tera/out", checksum); err != nil {
		log.Fatalf("TeraValidate FAILED: %v", err)
	}
	fmt.Printf("TeraSort (%s): %d records in %v — TeraValidate PASSED\n", engine.Name(), checksum.Count, elapsed.Round(time.Millisecond))
	fmt.Printf("  maps=%d reduces=%d output files=%d\n", res.NumMaps, res.NumReduces, len(res.OutputFiles))
	for _, k := range []string{"shuffle.http.bytes", "shuffle.rdma.bytes",
		"shuffle.rdma.packets", "tracker.mapoutput.disk.reads", "cache.hits", "cache.misses", "cache.prefetched"} {
		if v := res.Counters[k]; v != 0 {
			fmt.Printf("  %-30s %d\n", k, v)
		}
	}
}
