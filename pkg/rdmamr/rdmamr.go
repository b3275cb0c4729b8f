// Package rdmamr is the public API of the rdmamr library: a functional
// MapReduce runtime with pluggable shuffle engines — the paper's OSU-IB
// RDMA design (pre-fetching/caching TaskTracker cache, chunked
// priority-queue merge, shuffle/merge/reduce overlap), the Hadoop-A
// network-levitated-merge baseline, and vanilla socket/HTTP Hadoop — over
// an emulated InfiniBand verbs fabric, plus the workload generators and
// validators of the paper's evaluation.
//
// Quickstart:
//
//	conf := rdmamr.NewConfig()
//	conf.SetBool(rdmamr.KeyRDMAEnabled, true) // select the OSU-IB engine
//	cluster, err := rdmamr.NewCluster(4, conf)
//	defer cluster.Close()
//	// load input into cluster.FS(), then cluster.RunJob(ctx, &rdmamr.Job{...})
//
// The figure-scale performance simulator lives behind Figures and
// SimulateFigure; see EXPERIMENTS.md for the paper-vs-measured record.
package rdmamr

import (
	"fmt"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/sim"
	"rdmamr/internal/workload"
)

// Re-exported core types. These aliases are the supported surface; the
// internal packages may reorganize without notice.
type (
	// Cluster is a functional MapReduce cluster.
	Cluster = mapred.Cluster
	// Job describes one MapReduce job.
	Job = mapred.Job
	// JobHandle is a submitted job: Wait blocks for its result, so any
	// number of jobs can run concurrently against one cluster.
	JobHandle = mapred.JobHandle
	// JobResult summarizes a completed job.
	JobResult = mapred.JobResult
	// Config is a Hadoop-style configuration.
	Config = config.Config
	// ShuffleEngine is the pluggable shuffle implementation seam.
	ShuffleEngine = mapred.ShuffleEngine
	// Record is a key-value pair.
	Record = kv.Record
	// Checksum is an order-independent record-multiset digest.
	Checksum = workload.Checksum
	// Figure is one regenerated evaluation figure.
	Figure = sim.Figure
)

// Configuration keys the paper exposes (§III-C.3).
const (
	KeyRDMAEnabled      = config.KeyRDMAEnabled
	KeyCachingEnabled   = config.KeyCachingEnabled
	KeyRDMAPacketBytes  = config.KeyRDMAPacketBytes
	KeyKVPairsPerPacket = config.KeyKVPairsPerPacket
	KeyBlockSize        = config.KeyBlockSize
	KeyMapSlots         = config.KeyMapSlots
	KeyReduceSlots      = config.KeyReduceSlots
	// KeyRDMAOutstandingPerConn sets the RDMA copier's bounce-buffer ring
	// depth per host connection (0 = follow KeyParallelCopies).
	KeyRDMAOutstandingPerConn = config.KeyRDMAOutstandingPerConn
	KeyParallelCopies         = config.KeyParallelCopies
	// Multi-tenant JobTracker keys (README "Multi-tenant scheduling").
	KeyJTMaxRunning    = config.KeyJTMaxRunning
	KeyJTCacheJobQuota = config.KeyJTCacheJobQuota
	KeySpeculativeMaps = config.KeySpeculativeMaps
)

// NewConfig returns a configuration at the paper's tuned defaults.
func NewConfig() *Config { return config.New() }

// NewCluster builds an n-node cluster, selecting the shuffle engine from
// mapred.rdma.enabled — true gives the OSU-IB RDMA engine, false the
// vanilla socket/HTTP engine — exactly the hybrid switch of Figure 2.
func NewCluster(n int, conf *Config) (*Cluster, error) {
	if conf == nil {
		conf = config.New()
	}
	var engine ShuffleEngine
	if conf.Bool(config.KeyRDMAEnabled) {
		engine = core.New()
	} else {
		engine = httpshuffle.New()
	}
	return mapred.NewCluster(n, conf, engine)
}

// NewClusterWithEngine builds a cluster on an explicit engine (see
// EngineByName).
func NewClusterWithEngine(n int, conf *Config, engine ShuffleEngine) (*Cluster, error) {
	return mapred.NewCluster(n, conf, engine)
}

// EngineByName returns a fresh shuffle engine: "vanilla-http",
// "hadoop-a", or "osu-ib-rdma".
func EngineByName(name string) (ShuffleEngine, error) {
	switch name {
	case "vanilla-http":
		return httpshuffle.New(), nil
	case "hadoop-a":
		return core.NewHadoopA(), nil
	case "osu-ib-rdma":
		return core.New(), nil
	default:
		return nil, fmt.Errorf("rdmamr: unknown engine %q (want vanilla-http, hadoop-a, or osu-ib-rdma)", name)
	}
}

// EngineNames lists the available shuffle engines.
func EngineNames() []string { return []string{"vanilla-http", "hadoop-a", "osu-ib-rdma"} }

// TeraGen writes rows of TeraSort input (100-byte records) under dir.
func TeraGen(c *Cluster, dir string, rows, maxFileBytes, seed int64) ([]string, error) {
	return workload.TeraGen(c.FS(), dir, rows, maxFileBytes, seed)
}

// RandomWriter writes ~totalBytes of variable-size records (the Sort
// benchmark's input) under dir.
func RandomWriter(c *Cluster, dir string, totalBytes, maxFileBytes, seed int64) ([]string, error) {
	return workload.RandomWriter(c.FS(), dir, totalBytes, maxFileBytes, seed)
}

// TeraSortJob assembles a TeraSort job: it samples the input, builds a
// total-order partitioner (so concatenated outputs are globally sorted),
// and returns the job plus the input checksum for TeraValidate.
func TeraSortJob(c *Cluster, name string, inputs []string, output string, reduces int) (*Job, Checksum, error) {
	sample, err := workload.SampleKeys(c.FS(), inputs, mapred.TeraInput, 1000)
	if err != nil {
		return nil, Checksum{}, err
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, reduces))
	if err != nil {
		return nil, Checksum{}, err
	}
	sum, err := workload.ChecksumInput(c.FS(), inputs, mapred.TeraInput)
	if err != nil {
		return nil, Checksum{}, err
	}
	return &Job{
		Name:        name,
		Input:       inputs,
		Output:      output,
		InputFormat: mapred.TeraInput,
		Partitioner: part,
		NumReduces:  reduces,
	}, sum, nil
}

// SortJob assembles a Sort job over RandomWriter input and returns the
// input checksum for validation.
func SortJob(c *Cluster, name string, inputs []string, output string, reduces int) (*Job, Checksum, error) {
	sum, err := workload.ChecksumInput(c.FS(), inputs, mapred.RunInput{})
	if err != nil {
		return nil, Checksum{}, err
	}
	return &Job{Name: name, Input: inputs, Output: output, NumReduces: reduces}, sum, nil
}

// TeraValidate checks a sorted job's output: every part internally
// sorted, parts globally ordered, and the record multiset equal to the
// input checksum.
func TeraValidate(c *Cluster, outputDir string, want Checksum) error {
	return workload.Validate(c.FS(), outputDir, kv.BytesComparator, want, true)
}

// ValidateMultiset checks output correctness without the global-order
// requirement (hash-partitioned Sort).
func ValidateMultiset(c *Cluster, outputDir string, want Checksum) error {
	return workload.Validate(c.FS(), outputDir, kv.BytesComparator, want, false)
}

// Figures regenerates every evaluation figure from the performance
// simulator, in paper order (4a, 4b, 5, 6a, 6b, 7, 8).
func Figures() []Figure { return sim.AllFigures() }

// PaperVsMeasured renders the calibration scorecard: every quantitative
// claim in the paper's §IV against this reproduction's measurement.
func PaperVsMeasured() string { return sim.ScoreReport(sim.DefaultCalibration()) }
