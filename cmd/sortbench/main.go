// Command sortbench runs the functional Sort benchmark (variable-size
// records, §IV-C) end-to-end: RandomWriter → Sort → validation, with a
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
		megabytes  = flag.Int64("mb", 64, "input volume in MiB")
		reduces    = flag.Int("reduces", 0, "reduce tasks (0 = 2 per node)")
	)
	flag.Parse()

	engine, err := rdmamr.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, 1<<20) // Sort uses small blocks (64 MB at paper scale)
	cluster, err := rdmamr.NewClusterWithEngine(*nodes, conf, engine)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	r := *reduces
	if r == 0 {
		r = *nodes * 2
	}
	fmt.Printf("RandomWriter: ~%d MiB of variable-size records (kv ≤ 20,000 B)...\n", *megabytes)
	paths, err := rdmamr.RandomWriter(cluster, "/sort/in", *megabytes<<20, 1<<20, time.Now().UnixNano()%1e6)
	if err != nil {
		log.Fatal(err)
	}
	job, checksum, err := rdmamr.SortJob(cluster, "sort", paths, "/sort/out", r)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := cluster.RunJob(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := rdmamr.ValidateMultiset(cluster, "/sort/out", checksum); err != nil {
		log.Fatalf("validation FAILED: %v", err)
	}
	fmt.Printf("Sort (%s): %d records (%.1f MiB) in %v — validation PASSED\n",
		engine.Name(), checksum.Count, float64(checksum.Bytes)/(1<<20), elapsed.Round(time.Millisecond))
	fmt.Printf("  maps=%d reduces=%d\n", res.NumMaps, res.NumReduces)
	for _, k := range []string{"shuffle.http.packets", "shuffle.rdma.packets",
		"tracker.mapoutput.disk.reads", "cache.hits", "cache.misses"} {
		if v := res.Counters[k]; v != 0 {
			fmt.Printf("  %-30s %d\n", k, v)
		}
	}
}
