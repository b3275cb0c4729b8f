// Sort benchmark with variable-size records (combined key+value up to
// 20,000 bytes, §IV-C): RandomWriter → Sort → validation, comparing the
// Hadoop-A baseline against the OSU-IB design. The interesting output is
// the packet count: size-oblivious count packing (Hadoop-A) versus the
// OSU engine's size-aware fill.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"rdmamr/internal/config"
	"rdmamr/pkg/rdmamr"
)

func main() {
	var (
		megabytes = flag.Int64("mb", 16, "input volume in MiB")
		nodes     = flag.Int("nodes", 3, "cluster size")
	)
	flag.Parse()

	for _, engineName := range []string{"hadoop-a", "osu-ib-rdma"} {
		engine, err := rdmamr.EngineByName(engineName)
		if err != nil {
			log.Fatal(err)
		}
		conf := rdmamr.NewConfig()
		conf.SetInt(rdmamr.KeyBlockSize, 64<<10)
		conf.SetInt(config.KeyRDMAPacketBytes, 32<<10)
		conf.SetInt(rdmamr.KeyKVPairsPerPacket, 64)
		cluster, err := rdmamr.NewClusterWithEngine(*nodes, conf, engine)
		if err != nil {
			log.Fatal(err)
		}

		paths, err := rdmamr.RandomWriter(cluster, "/sort/in", *megabytes<<20, 256<<10, 42)
		if err != nil {
			log.Fatal(err)
		}
		job, checksum, err := rdmamr.SortJob(cluster, "sort", paths, "/sort/out", *nodes*2)
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		res, err := cluster.RunJob(context.Background(), job)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdmamr.ValidateMultiset(cluster, "/sort/out", checksum); err != nil {
			log.Fatalf("%s: validation FAILED: %v", engineName, err)
		}
		fmt.Printf("%-14s sorted %6d variable-size records (%.1f MiB) in %v\n",
			engineName, checksum.Count, float64(checksum.Bytes)/(1<<20), time.Since(start).Round(time.Millisecond))
		packets := res.Counters["shuffle.rdma.packets"]
		bytes := res.Counters["shuffle.rdma.bytes"]
		if packets > 0 {
			fmt.Printf("  %d shuffle packets, mean packet %0.1f KiB\n", packets, float64(bytes)/float64(packets)/1024)
		}
		cluster.Close()
	}
}
