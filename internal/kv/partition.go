package kv

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Partitioner assigns a record key to one of n reduce partitions.
type Partitioner interface {
	// Partition returns the partition index in [0, n) for key.
	Partition(key []byte, n int) int
}

// HashPartitioner is Hadoop's default partitioner: a stable hash of the key
// modulo the number of reducers. The zero value is ready to use.
type HashPartitioner struct{}

// Partition implements Partitioner using FNV-1a.
func (HashPartitioner) Partition(key []byte, n int) int {
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// TotalOrderPartitioner implements TeraSort's range partitioner: partition
// boundaries are sampled split points such that partition i receives keys in
// [split[i-1], split[i]). With this partitioner the concatenation of sorted
// reduce outputs is globally sorted, which is what TeraValidate checks.
type TotalOrderPartitioner struct {
	splits   [][]byte // len n-1, sorted ascending
	prefixes []uint64 // keyPrefix of each split
}

// NewTotalOrderPartitioner builds a partitioner from sorted split points.
// splits must be in ascending order; there are len(splits)+1 partitions.
func NewTotalOrderPartitioner(splits [][]byte) (*TotalOrderPartitioner, error) {
	for i := 1; i < len(splits); i++ {
		if BytesComparator(splits[i-1], splits[i]) > 0 {
			return nil, fmt.Errorf("kv: split points not sorted at %d", i)
		}
	}
	prefixes := make([]uint64, len(splits))
	for i, s := range splits {
		prefixes[i] = keyPrefix(s)
	}
	return &TotalOrderPartitioner{splits: splits, prefixes: prefixes}, nil
}

// SampleSplits derives n-1 split points from a key sample, mirroring
// TeraSort's input sampler. The sample is consumed (sorted in place).
func SampleSplits(sample [][]byte, n int) [][]byte {
	if n <= 1 || len(sample) == 0 {
		return nil
	}
	sort.Slice(sample, func(i, j int) bool { return BytesComparator(sample[i], sample[j]) < 0 })
	splits := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		idx := i * len(sample) / n
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		k := make([]byte, len(sample[idx]))
		copy(k, sample[idx])
		splits = append(splits, k)
	}
	return splits
}

// Partition implements Partitioner by binary search over the split points:
// the first split the key sorts before. The search compares 8-byte
// prefixes, which order like the keys wherever they differ, and reads a
// split point only on a prefix tie. The n argument must equal
// len(splits)+1; it is accepted for interface compatibility and validated
// in tests.
func (p *TotalOrderPartitioner) Partition(key []byte, n int) int {
	kp := keyPrefix(key)
	lo, hi := 0, len(p.splits)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		sp := p.prefixes[mid]
		if kp < sp || (kp == sp && BytesComparator(key, p.splits[mid]) < 0) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return min(lo, n-1)
}

// Splits returns the partitioner's split points (not copied).
func (p *TotalOrderPartitioner) Splits() [][]byte { return p.splits }

// SortRecords sorts recs in place by key under cmp, with a stable order so
// equal keys preserve input (map emission) order as Hadoop's sort does.
func SortRecords(recs []Record, cmp Comparator) {
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp(a.Key, b.Key) })
}

// PartitionAndSort splits recs into n per-partition slices and sorts each by
// key, equal keys keeping their input order. It is the map task's "sort
// and spill" step run over a record slice: the records go through a
// SortBuffer exactly as collected map output does, so the result views the
// buffer's arena rather than the input's memory. A nil cmp means byte
// order, as for NewSortBuffer.
func PartitionAndSort(recs []Record, part Partitioner, n int, cmp Comparator) [][]Record {
	size := 0
	for _, r := range recs {
		size += len(r.Key) + len(r.Value)
	}
	b := NewSortBuffer(part, n, cmp, size)
	for _, r := range recs {
		b.Add(r.Key, r.Value)
	}
	b.Sort()
	out := make([][]Record, n)
	for p := range out {
		out[p] = b.Records(p, nil)
	}
	return out
}
