// Recovery demo: the paper's §VI future work ("handle faster recovery in
// case of task failures") implemented and visible. Map outputs are
// destroyed mid-job by a fault injector; reduce-side fetchers detect the
// loss, the recovery coordinator re-executes the maps on other nodes,
// and the job still produces a validated, globally sorted result.
package main

import (
	"context"
	"fmt"
	"log"

	"rdmamr/internal/chaos"
	"rdmamr/internal/mapred"
	"rdmamr/pkg/rdmamr"
)

func main() {
	engine, err := rdmamr.EngineByName("osu-ib-rdma")
	if err != nil {
		log.Fatal(err)
	}
	// Destroy the outputs of maps 0, 1 and 2 the moment they complete.
	injected := chaos.Wrap(engine, nil,
		chaos.Event{Kind: chaos.LoseOutput, Map: 0},
		chaos.Event{Kind: chaos.LoseOutput, Map: 1},
		chaos.Event{Kind: chaos.LoseOutput, Map: 2})

	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, 64<<10)
	cluster, err := rdmamr.NewClusterWithEngine(3, conf, injected)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	paths, err := rdmamr.TeraGen(cluster, "/in", 8000, 64<<10, 13)
	if err != nil {
		log.Fatal(err)
	}
	job, checksum, err := rdmamr.TeraSortJob(cluster, "recovery-demo", paths, "/out", 6)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running TeraSort with 3 map outputs sabotaged mid-job...")
	res, err := cluster.RunJob(context.Background(), job)
	if err != nil {
		log.Fatalf("job failed despite recovery: %v", err)
	}
	if err := rdmamr.TeraValidate(cluster, "/out", checksum); err != nil {
		log.Fatalf("TeraValidate FAILED: %v", err)
	}

	fmt.Printf("job %s completed and validated (%d records)\n", res.JobID, checksum.Count)
	fmt.Printf("  outputs destroyed        %d\n", res.Counters["chaos.outputs.lost"])
	fmt.Printf("  fetch failures observed  %d\n", res.Counters["shuffle.fetch.failures"])
	fmt.Printf("  map tasks re-executed    %d\n", res.Counters["map.tasks.recovered"])
	fmt.Printf("  map attempts bound       %d per map\n", mapred.MaxTaskAttempts)
}
