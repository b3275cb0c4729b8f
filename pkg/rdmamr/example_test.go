package rdmamr_test

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/workload"
	"rdmamr/pkg/rdmamr"
)

// must stops an example at its first error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// A word count on a 2-node cluster with the OSU-IB RDMA shuffle engine.
// The job, the cluster and the configuration are the rdmamr API; the
// text input format, the word generator and the reader of the output
// runs have no re-export and come from the internal packages.
func Example_quickstart() {
	conf := rdmamr.NewConfig()
	conf.SetBool(rdmamr.KeyRDMAEnabled, true) // mapred.rdma.enabled=true → OSU-IB engine
	conf.SetInt(rdmamr.KeyBlockSize, 64<<10)

	cluster, err := rdmamr.NewCluster(2, conf)
	must(err)
	defer cluster.Close()
	fmt.Println("engine:", cluster.Engine().Name())

	words := []string{"rdma", "shuffle", "merge", "rdma", "infiniband", "rdma", "shuffle"}
	must(workload.WordGen(cluster.FS(), "/wc/in", words, 100))

	job := &rdmamr.Job{
		Name:   "wordcount",
		Input:  []string{"/wc/in"},
		Output: "/wc/out",
		Mapper: func(_, value []byte, emit func(k, v []byte)) error {
			if len(value) > 0 {
				emit(value, []byte("1"))
			}
			return nil
		},
		Reducer: func(key []byte, values [][]byte, emit func(k, v []byte)) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
		InputFormat: mapred.LineInput{},
		NumReduces:  2,
	}
	res, err := cluster.RunJob(context.Background(), job)
	must(err)

	// Each reduce writes its words in order; the lines are sorted across
	// the two outputs for a stable listing.
	var lines []string
	for _, p := range res.OutputFiles {
		data, err := cluster.FS().ReadFile(p)
		must(err)
		rr, err := kv.NewRunReader(data)
		must(err)
		for rr.Next() {
			lines = append(lines, fmt.Sprintf("%-10s %s", rr.Record().Key, rr.Record().Value))
		}
		must(rr.Err())
	}
	slices.Sort(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Println("shuffled over RDMA:", res.Counters["shuffle.rdma.bytes"] > 0)
	// Output:
	// engine: osu-ib-rdma
	// infiniband 100
	// merge      100
	// rdma       300
	// shuffle    200
	// shuffled over RDMA: true
}

// The paper's Figure 8 mechanism at small scale: the same TeraSort on the
// OSU-IB engine with the TaskTracker's PrefetchCache on and then off
// (§III-B.3, §IV-D). With the cache on, reduces are served from it and
// the trackers read less map output from disk. How many partitions the
// prefetcher reaches in time depends on scheduling, so the example prints
// the comparison's verdict, not the counts.
func Example_caching() {
	type run struct{ hits, diskReads int64 }
	sort := func(caching bool) run {
		conf := rdmamr.NewConfig()
		conf.SetBool(rdmamr.KeyRDMAEnabled, true)
		conf.SetBool(rdmamr.KeyCachingEnabled, caching)
		conf.SetInt(rdmamr.KeyBlockSize, 64<<10)
		// Small packets make many chunk requests per partition, so each
		// cache hit saves several disk reads.
		conf.SetInt(config.KeyRDMAPacketBytes, 2048)
		conf.SetInt(rdmamr.KeyKVPairsPerPacket, 16)

		cluster, err := rdmamr.NewCluster(3, conf)
		must(err)
		defer cluster.Close()
		paths, err := rdmamr.TeraGen(cluster, "/in", 6000, 64<<10, 8)
		must(err)
		job, checksum, err := rdmamr.TeraSortJob(cluster, "cachedemo", paths, "/out", 6)
		must(err)
		res, err := cluster.RunJob(context.Background(), job)
		must(err)
		must(rdmamr.TeraValidate(cluster, "/out", checksum))
		fmt.Printf("caching=%v: TeraValidate passed\n", caching)
		return run{res.Counters["cache.hits"], res.Counters["tracker.mapoutput.disk.reads"]}
	}
	on, off := sort(true), sort(false)
	fmt.Println("the cache served chunks:", on.hits > 0)
	fmt.Println("fewer tracker disk reads with the cache:", on.diskReads < off.diskReads)
	// Output:
	// caching=true: TeraValidate passed
	// caching=false: TeraValidate passed
	// the cache served chunks: true
	// fewer tracker disk reads with the cache: true
}

// Faster recovery from task failures, the paper's §VI future work: the
// outputs of maps 0, 1 and 2 are destroyed the moment they complete, the
// reduces' fetchers see the loss, the maps run again, and the job still
// produces a validated, globally sorted result. How many fetches fail on
// the way depends on scheduling, so the example prints only verdicts.
func Example_recovery() {
	engine, err := rdmamr.EngineByName("osu-ib-rdma")
	must(err)
	injected := chaos.Wrap(engine, nil,
		chaos.Event{Kind: chaos.LoseOutput, Map: 0},
		chaos.Event{Kind: chaos.LoseOutput, Map: 1},
		chaos.Event{Kind: chaos.LoseOutput, Map: 2})

	conf := rdmamr.NewConfig()
	conf.SetInt(rdmamr.KeyBlockSize, 64<<10)
	cluster, err := rdmamr.NewClusterWithEngine(3, conf, injected)
	must(err)
	defer cluster.Close()

	paths, err := rdmamr.TeraGen(cluster, "/in", 8000, 64<<10, 13)
	must(err)
	job, checksum, err := rdmamr.TeraSortJob(cluster, "recovery-demo", paths, "/out", 6)
	must(err)
	res, err := cluster.RunJob(context.Background(), job)
	must(err)
	injected.Wait()
	must(rdmamr.TeraValidate(cluster, "/out", checksum))

	fmt.Printf("TeraValidate passed: %d records\n", checksum.Count)
	fmt.Println("map outputs destroyed:", res.Counters["chaos.outputs.lost"])
	fmt.Println("lost maps re-executed:", res.Counters["map.tasks.recovered"] > 0)
	// Output:
	// TeraValidate passed: 8000 records
	// map outputs destroyed: 3
	// lost maps re-executed: true
}
