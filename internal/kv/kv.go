// Package kv implements the key-value record layer shared by every
// MapReduce component in rdmamr: record encoding, comparators,
// partitioners, in-memory sorting, sorted-run (IFile-style) readers and
// writers, and a streaming k-way merge built on a priority queue.
//
// The on-wire and on-disk format is the same: each record is encoded as
//
//	uvarint(len(key)) uvarint(len(value)) key value
//
// Sorted runs add a small header and a trailing CRC32 so corruption in a
// spill file or a shuffled packet is detected rather than silently merged.
package kv

import (
	"bytes"
	"fmt"
	"reflect"
)

// Record is a single key-value pair. Key and Value alias the buffers they
// were decoded from unless the producer documents otherwise; callers that
// retain records across iterator advances must Clone them.
type Record struct {
	Key   []byte
	Value []byte
}

// Clone returns a deep copy of r that remains valid after the underlying
// buffer is reused.
func (r Record) Clone() Record {
	k := make([]byte, len(r.Key))
	copy(k, r.Key)
	v := make([]byte, len(r.Value))
	copy(v, r.Value)
	return Record{Key: k, Value: v}
}

// EncodedLen returns the number of bytes Encode will produce for r.
func (r Record) EncodedLen() int {
	return uvarintLen(uint64(len(r.Key))) + uvarintLen(uint64(len(r.Value))) + len(r.Key) + len(r.Value)
}

func (r Record) String() string {
	return fmt.Sprintf("%q=%q", r.Key, r.Value)
}

// Comparator orders keys. It must be a total order: negative if a sorts
// before b, zero if equal, positive otherwise.
type Comparator func(a, b []byte) int

// BytesComparator is the default lexicographic byte order used by both
// TeraSort and Sort, matching Hadoop's BytesWritable ordering.
func BytesComparator(a, b []byte) int { return bytes.Compare(a, b) }

var bytesComparatorPC = reflect.ValueOf(BytesComparator).Pointer()

// IsByteOrder reports whether cmp is known to be plain byte order — nil,
// which every constructor here reads as the default, or BytesComparator
// itself — the one order under which the sort and the merge may compare
// 8-byte key prefixes before keys. It has to recognise the function, not
// only nil, because callers that mean the default pass BytesComparator
// by name. The test is identity of the code pointer, so a closure that
// merely behaves like byte order answers false; that costs speed, never
// correctness. Call it once per sort or merge, not per comparison.
func IsByteOrder(cmp Comparator) bool {
	return cmp == nil || reflect.ValueOf(cmp).Pointer() == bytesComparatorPC
}

// Iterator streams records in some producer-defined order. Next advances to
// the next record and reports whether one is available; Record returns the
// current record and is only valid after a successful Next. After Next
// returns false, Err distinguishes exhaustion (nil) from failure.
type Iterator interface {
	Next() bool
	Record() Record
	Err() error
}

// SliceIterator iterates over an in-memory record slice.
type SliceIterator struct {
	recs []Record
	idx  int
}

// NewSliceIterator returns an iterator over recs in slice order.
func NewSliceIterator(recs []Record) *SliceIterator {
	return &SliceIterator{recs: recs, idx: -1}
}

// Next advances the iterator.
func (it *SliceIterator) Next() bool {
	if it.idx+1 >= len(it.recs) {
		return false
	}
	it.idx++
	return true
}

// NextInto is Next followed by Record, the record written to *r.
func (it *SliceIterator) NextInto(r *Record) bool {
	if !it.Next() {
		return false
	}
	*r = it.recs[it.idx]
	return true
}

// Record returns the current record.
func (it *SliceIterator) Record() Record { return it.recs[it.idx] }

// Err always returns nil; a slice cannot fail.
func (it *SliceIterator) Err() error { return nil }

// Drain consumes it fully and returns all records, cloning each so the
// result does not alias iterator-internal buffers.
func Drain(it Iterator) ([]Record, error) {
	var out []Record
	for it.Next() {
		out = append(out, it.Record().Clone())
	}
	return out, it.Err()
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
