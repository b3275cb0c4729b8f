package mapred

import (
	"bytes"
	"fmt"

	"rdmamr/internal/kv"
)

// InputFormat parses raw input split bytes into records.
type InputFormat interface {
	// Records returns an iterator over the records in one split. split
	// may be a stored HDFS block: a read-only view; clone to mutate.
	Records(split []byte) (kv.Iterator, error)
	// Splittable reports whether files in this format may be split at
	// block boundaries of the given size without tearing records. When
	// false, the planner reads each file as a single split.
	Splittable(blockSize int64) bool
}

// FixedRecordInput parses fixed-length records — TeraSort's format: each
// record is RecordLen bytes, the first KeyLen of which are the key.
type FixedRecordInput struct {
	RecordLen int // total record length (TeraSort: 100)
	KeyLen    int // key prefix length (TeraSort: 10)
}

// TeraInput is the TeraGen/TeraSort record format: 100-byte records with
// 10-byte keys, per the benchmark's fixed key and value size (§II-A.1).
var TeraInput = FixedRecordInput{RecordLen: 100, KeyLen: 10}

// Records implements InputFormat.
func (f FixedRecordInput) Records(split []byte) (kv.Iterator, error) {
	if f.RecordLen <= 0 || f.KeyLen <= 0 || f.KeyLen > f.RecordLen {
		return nil, fmt.Errorf("mapred: bad FixedRecordInput %+v", f)
	}
	if len(split)%f.RecordLen != 0 {
		return nil, fmt.Errorf("mapred: split of %d bytes is not a multiple of record length %d", len(split), f.RecordLen)
	}
	return &fixedIterator{f: f, data: split}, nil
}

// Splittable implements InputFormat: safe iff blocks align to records.
func (f FixedRecordInput) Splittable(blockSize int64) bool {
	return f.RecordLen > 0 && blockSize%int64(f.RecordLen) == 0
}

type fixedIterator struct {
	f    FixedRecordInput
	data []byte
	cur  kv.Record
}

func (it *fixedIterator) Next() bool {
	if len(it.data) < it.f.RecordLen {
		return false
	}
	rec := it.data[:it.f.RecordLen]
	it.cur = kv.Record{Key: rec[:it.f.KeyLen], Value: rec[it.f.KeyLen:]}
	it.data = it.data[it.f.RecordLen:]
	return true
}

func (it *fixedIterator) Record() kv.Record { return it.cur }
func (it *fixedIterator) Err() error        { return nil }

// RunInput parses kv sorted-run files (RandomWriter's output format and
// the format of every reduce output). Not splittable: records are
// variable-length with no sync markers.
type RunInput struct{}

// Records implements InputFormat.
func (RunInput) Records(split []byte) (kv.Iterator, error) {
	return kv.NewRunReader(split)
}

// Splittable implements InputFormat.
func (RunInput) Splittable(int64) bool { return false }

// LineInput yields one record per newline-terminated line: key = nil,
// value = line without the terminator (the wordcount example's format).
type LineInput struct{}

// Records implements InputFormat.
func (LineInput) Records(split []byte) (kv.Iterator, error) {
	return &lineIterator{data: split}, nil
}

// Splittable implements InputFormat.
func (LineInput) Splittable(int64) bool { return false }

type lineIterator struct {
	data []byte
	cur  kv.Record
}

func (it *lineIterator) Next() bool {
	if len(it.data) == 0 {
		return false
	}
	i := bytes.IndexByte(it.data, '\n')
	var line []byte
	if i < 0 {
		line, it.data = it.data, nil
	} else {
		line, it.data = it.data[:i], it.data[i+1:]
	}
	it.cur = kv.Record{Value: line}
	return true
}

func (it *lineIterator) Record() kv.Record { return it.cur }
func (it *lineIterator) Err() error        { return nil }
