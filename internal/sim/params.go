// Package sim is the performance plane: a discrete-event cluster
// simulator that replays the paper's evaluation (§IV) at full scale —
// 4–24 nodes, 5–200 GB sorts — for all four designs (vanilla Hadoop on a
// socket fabric, Hadoop-A, OSU-IB with and without caching).
//
// The simulator models the resources the designs contend for: per-node
// disks (fair-shared bandwidth with a seek-interleave penalty), NIC ports
// (fair-shared full duplex), CPU cores, and the 4+4 task slots the paper
// tunes. The design alternatives differ only in the decision rules the
// paper describes — where the TaskTracker reads serve from (disk vs
// PrefetchCache), whether the reducer spills and multi-pass merges
// (vanilla) or merges remote-resident data in memory (RDMA designs),
// whether reduce work overlaps the shuffle, and how packets are filled.
// Absolute times depend on the calibration table in calibrate.go;
// the figure *shapes* (who wins, by what factor, where crossovers fall)
// come from the mechanisms.
package sim

import (
	"fmt"

	"rdmamr/internal/fabric"
	"rdmamr/internal/storage"
)

// Design enumerates the evaluated shuffle designs.
type Design int

// The four designs of the evaluation.
const (
	Vanilla Design = iota // default Hadoop over a socket fabric
	HadoopA               // network-levitated merge over verbs
	OSUIB                 // the paper's RDMA design (this work)
)

// String returns the figure-legend name.
func (d Design) String() string {
	switch d {
	case Vanilla:
		return "vanilla"
	case HadoopA:
		return "HadoopA-IB"
	case OSUIB:
		return "OSU-IB"
	default:
		return fmt.Sprintf("sim.Design(%d)", int(d))
	}
}

// Workload enumerates the benchmark workloads.
type Workload int

// Workloads.
const (
	TeraSort Workload = iota // fixed 100-byte records
	Sort                     // variable records, avg ~10 KB, max 20,000 B
)

// String returns the benchmark name.
func (w Workload) String() string {
	if w == Sort {
		return "Sort"
	}
	return "TeraSort"
}

// AvgRecordBytes returns the workload's mean record size, which drives
// packet-fill behaviour (D4) and per-record CPU costs: TeraSort's
// 100-byte records make it CPU-bound per record, Sort's ~10 KB records
// make it I/O-bound.
func (w Workload) AvgRecordBytes() float64 {
	if w == Sort {
		// RandomWriter: keys 10–1000 B, values 0–19000 B → mean ≈ 10 KB.
		return 10005
	}
	return 100
}

// Params configures one simulated job run.
type Params struct {
	Design   Design
	Fabric   fabric.Kind
	Storage  storage.DeviceKind
	Workload Workload

	Nodes     int
	DataBytes float64
	BlockSize float64

	// MapSlots/ReduceSlots per TaskTracker; the paper tunes both to 4.
	MapSlots    int
	ReduceSlots int
	// ReducesPerNode sets R = ReducesPerNode × Nodes (default 4, one
	// reduce wave).
	ReducesPerNode int

	// RAMBytes per node bounds the PrefetchCache (compute nodes have
	// 12 GB, the storage nodes of Figure 5 have 24 GB).
	RAMBytes float64

	// Caching enables the OSU PrefetchCache (Figure 8 ablation).
	Caching bool

	// Overlap enables streaming shuffle/merge/reduce overlap for the OSU
	// design (D3 ablation); Hadoop-A always streams, vanilla never does.
	Overlap bool

	// SizeAware enables size-aware packet filling for the OSU design (D4
	// ablation).
	SizeAware bool

	// FetchWindow is the per-reduce number of concurrent fetches
	// (mapred.reduce.parallel.copies).
	FetchWindow int

	// FetchDepth is the OSU copier's per-host-connection pipeline depth
	// (mapred.reduce.parallel.copies on the RDMA path): the number of
	// bounce-buffer ring slots, hence the maximum outstanding requests per
	// TaskTracker connection. It scales the residual per-chunk stall the no-cache
	// merge path exposes — deeper rings hide more of the round trip.
	// 0 means Calib.FetchDepthRef (the calibrated default), keeping
	// hand-built Params and all published figures unchanged.
	FetchDepth int

	Calib Calibration
}

// DefaultParams returns the paper's tuned configuration for a given
// design/fabric/storage triple.
func DefaultParams(d Design, fk fabric.Kind, sk storage.DeviceKind, w Workload, nodes int, dataBytes float64) Params {
	p := Params{
		Design: d, Fabric: fk, Storage: sk, Workload: w,
		Nodes: nodes, DataBytes: dataBytes,
		MapSlots: 4, ReduceSlots: 4, ReducesPerNode: 4,
		RAMBytes:    12e9,
		Caching:     d == OSUIB,
		Overlap:     d != Vanilla,
		SizeAware:   d == OSUIB,
		FetchWindow: 4,
		FetchDepth:  4,
		Calib:       DefaultCalibration(),
	}
	// Optimal block sizes from §IV: 256 MB for TeraSort (128 MB for
	// Hadoop-A), 64 MB for Sort.
	switch w {
	case TeraSort:
		if d == HadoopA {
			p.BlockSize = 128 << 20
		} else {
			p.BlockSize = 256 << 20
		}
	case Sort:
		p.BlockSize = 64 << 20
	}
	return p
}

// Validate checks parameter sanity.
func (p *Params) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("sim: nodes %d", p.Nodes)
	}
	if p.DataBytes <= 0 || p.BlockSize <= 0 {
		return fmt.Errorf("sim: data %g / block %g", p.DataBytes, p.BlockSize)
	}
	if p.MapSlots <= 0 || p.ReduceSlots <= 0 || p.ReducesPerNode <= 0 || p.FetchWindow <= 0 {
		return fmt.Errorf("sim: slot configuration invalid")
	}
	if p.FetchDepth < 0 {
		return fmt.Errorf("sim: fetch depth %d", p.FetchDepth)
	}
	if p.RAMBytes <= 0 {
		return fmt.Errorf("sim: ram %g", p.RAMBytes)
	}
	if p.Design == Vanilla && fabric.Models(p.Fabric).RDMACapable {
		// Vanilla on raw verbs is not a configuration the paper runs;
		// sockets on IB means IPoIB.
		return fmt.Errorf("sim: vanilla Hadoop needs a socket fabric (use IPoIB, not verbs)")
	}
	if (p.Design == HadoopA || p.Design == OSUIB) && !fabric.Models(p.Fabric).RDMACapable {
		return fmt.Errorf("sim: %v requires the verbs fabric", p.Design)
	}
	return nil
}

// Result reports one simulated job.
type Result struct {
	JobSeconds     float64
	MapPhaseEnd    float64 // when the last map task finished
	FirstFetch     float64 // when the first shuffle fetch was issued
	ShuffleEnd     float64 // when the last fetch completed
	FirstReduce    float64 // when the first reduce-side work increment began
	CacheHits      int
	CacheMisses    int
	DiskBytesRead  float64
	DiskBytesWrite float64
	NetBytes       float64
}
