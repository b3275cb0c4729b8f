// TeraSort end-to-end on all three shuffle engines: TeraGen →
// TeraSort → TeraValidate, with per-engine wall time and shuffle
// characteristics — the functional half of the paper's TeraSort
// evaluation (§IV-B) at laptop scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"rdmamr/pkg/rdmamr"
)

func main() {
	var (
		rows  = flag.Int64("rows", 20000, "TeraGen rows (100 bytes each)")
		nodes = flag.Int("nodes", 4, "cluster size")
	)
	flag.Parse()

	for _, engineName := range rdmamr.EngineNames() {
		runOne(engineName, *nodes, *rows)
	}
}

func runOne(engineName string, nodes int, rows int64) {
	engine, err := rdmamr.EngineByName(engineName)
	if err != nil {
		log.Fatal(err)
	}
	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, 256<<10)
	cluster, err := rdmamr.NewClusterWithEngine(nodes, conf, engine)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	paths, err := rdmamr.TeraGen(cluster, "/tera/in", rows, 128<<10, 2013)
	if err != nil {
		log.Fatal(err)
	}
	job, checksum, err := rdmamr.TeraSortJob(cluster, "terasort", paths, "/tera/out", nodes*2)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := cluster.RunJob(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	if err := rdmamr.TeraValidate(cluster, "/tera/out", checksum); err != nil {
		log.Fatalf("%s: TeraValidate FAILED: %v", engineName, err)
	}

	fmt.Printf("%-14s sorted %8d records in %8v  (maps=%d reduces=%d)\n",
		engineName, checksum.Count, time.Since(start).Round(time.Millisecond), res.NumMaps, res.NumReduces)
	for _, k := range []string{
		"shuffle.http.bytes", "shuffle.rdma.bytes",
		"tracker.mapoutput.disk.reads", "cache.hits", "cache.misses",
	} {
		if v := res.Counters[k]; v != 0 {
			fmt.Printf("  %-30s %d\n", k, v)
		}
	}
}
