// Package mapred is the functional MapReduce engine: a miniature Hadoop
// 0.20-style runtime with a JobTracker scheduling MapTasks onto
// TaskTrackers (locality-aware, 4 map + 4 reduce slots per tracker as the
// paper tunes), sorted map-side spills, and a pluggable shuffle engine.
//
// The shuffle engine abstraction is the seam the paper's Figure 2
// describes: the vanilla HTTP-servlet path
// (internal/shuffle/httpshuffle), the OSU-IB RDMA design with
// pre-fetching and caching (internal/core), and the Hadoop-A
// network-levitated merge (the same RDMA engine without the cache and
// with count-driven packets, core.NewHadoopA) all plug in behind the same
// interfaces, selected per job by mapred.rdma.enabled-style configuration.
package mapred

import (
	"errors"
	"fmt"
	"strconv"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
)

// Mapper transforms one input record, emitting zero or more intermediate
// records. key and value may lie in the stored HDFS block the split was
// read from: a read-only view; clone to mutate. The emitted slices are
// copied by the framework; the mapper may reuse its buffers.
type Mapper func(key, value []byte, emit func(k, v []byte)) error

// Reducer folds all values for one key, emitting output records. values
// arrive in map-emission order within each map, merged across maps. key
// and values are read-only views — into the merged shuffle stream or a
// framework arena — valid only during the call: clone to mutate or to
// keep. The emitted slices are copied by the framework.
type Reducer func(key []byte, values [][]byte, emit func(k, v []byte)) error

// IdentityMapper emits its input unchanged — the map function of both
// TeraSort and Sort.
func IdentityMapper(key, value []byte, emit func(k, v []byte)) error {
	emit(key, value)
	return nil
}

// IdentityReducer emits each value under its key unchanged — the reduce
// function of both TeraSort and Sort.
func IdentityReducer(key []byte, values [][]byte, emit func(k, v []byte)) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// Job describes one MapReduce job.
type Job struct {
	// Name labels the job in stats and store keys; it must be unique per
	// cluster lifetime (the cluster rejects reuse).
	Name string
	// Input lists HDFS paths (files) to process.
	Input []string
	// Output is the HDFS directory for part-r-NNNNN files; it must not
	// already contain files.
	Output string

	Mapper  Mapper
	Reducer Reducer
	// Combiner optionally pre-aggregates each sorted map output
	// partition before it is spilled (Hadoop's combiner): it receives
	// the grouped values for each key and emits replacement records,
	// shrinking the data the shuffle must move. It must be associative
	// and commutative with the Reducer.
	Combiner Reducer

	// InputFormat parses input splits; defaults to RunInput.
	InputFormat InputFormat
	// Partitioner routes keys to reduce partitions; defaults to
	// kv.HashPartitioner.
	Partitioner kv.Partitioner
	// Comparator orders intermediate keys; defaults to kv.BytesComparator.
	Comparator kv.Comparator
	// GroupComparator optionally widens reduce-side grouping (secondary
	// sort): records are merged in Comparator order, but consecutive keys
	// comparing equal under GroupComparator are handed to one Reducer
	// call. Defaults to Comparator.
	GroupComparator kv.Comparator
	// NumReduces is the reduce task count; 0 means one per reduce slot.
	NumReduces int
	// Conf overrides the cluster configuration for this job (nil = use
	// the cluster's).
	Conf *config.Config
}

func (j *Job) withDefaults(clusterConf *config.Config) (*Job, error) {
	if j.Name == "" {
		return nil, errors.New("mapred: job needs a Name")
	}
	if len(j.Input) == 0 {
		return nil, errors.New("mapred: job needs Input paths")
	}
	if j.Output == "" {
		return nil, errors.New("mapred: job needs an Output directory")
	}
	out := *j
	if out.Mapper == nil {
		out.Mapper = IdentityMapper
	}
	if out.Reducer == nil {
		out.Reducer = IdentityReducer
	}
	if out.InputFormat == nil {
		out.InputFormat = RunInput{}
	}
	if out.Partitioner == nil {
		out.Partitioner = kv.HashPartitioner{}
	}
	if out.Comparator == nil {
		out.Comparator = kv.BytesComparator
	}
	if out.GroupComparator == nil {
		out.GroupComparator = out.Comparator
	}
	if out.Conf == nil {
		out.Conf = clusterConf
	}
	if out.NumReduces < 0 {
		return nil, fmt.Errorf("mapred: NumReduces %d", out.NumReduces)
	}
	return &out, nil
}

// JobInfo is the immutable job metadata shuffle engines see.
type JobInfo struct {
	ID         string
	Conf       *config.Config
	Comparator kv.Comparator
	NumMaps    int
	NumReduces int
}

// MapOutputKey is the local-store key for one map output partition. All
// components (map spill, servlets, responders, prefetcher) address map
// outputs through this single naming scheme; the string is its one
// allocation.
func MapOutputKey(jobID string, mapID, partition int) string {
	var buf [64]byte
	return string(AppendMapOutputKey(buf[:0], jobID, mapID, partition))
}

// AppendMapOutputKey appends MapOutputKey's bytes to dst. Every map output
// read builds one, so a reader that looks the key up in place
// (LocalStore.GetKey) builds it in a stack buffer and allocates nothing.
func AppendMapOutputKey(dst []byte, jobID string, mapID, partition int) []byte {
	dst = append(dst, "mapout/"...)
	dst = append(dst, jobID...)
	dst = append(dst, "/m"...)
	dst = appendID(dst, mapID)
	dst = append(dst, "/p"...)
	return appendID(dst, partition)
}

// appendID appends v as fmt's %05d does: zero-padded to five characters,
// a minus sign counted among them.
func appendID(dst []byte, v int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(v), 10)
	width := 5
	if v < 0 {
		dst = append(dst, '-')
		digits, width = digits[1:], width-1
	}
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}
