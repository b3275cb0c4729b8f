// Package workload implements the paper's benchmark workloads (§II-A):
// TeraGen/TeraSort/TeraValidate with fixed 100-byte records, and
// RandomWriter/Sort with variable-size records whose combined key+value
// length reaches 20,000 bytes (§IV-C) — the property that breaks
// Hadoop-A's size-oblivious packet filling.
package workload

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"rdmamr/internal/hdfs"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// TeraSort record geometry: 10-byte key, 90-byte value, 100 bytes total.
const (
	TeraKeyLen    = 10
	TeraValueLen  = 90
	TeraRecordLen = TeraKeyLen + TeraValueLen
)

// teraIDLen is the width of the zero-padded row id ("%020d") that opens
// every TeraGen value.
const teraIDLen = 20

// teraValue is row 0's value, teragen's layout: the row id in ASCII,
// zero-padded to teraIDLen digits, then filler whose byte at record
// offset j is 'A'+(j%26).
var teraValue = func() (v [TeraValueLen]byte) {
	for j := range v {
		if j < teraIDLen {
			v[j] = '0'
		} else {
			v[j] = byte('A' + ((TeraKeyLen + j) % 26))
		}
	}
	return v
}()

// TeraGen writes rows 100-byte records into dir as part files of at most
// maxFileBytes each (rounded down to whole records), returning the file
// paths. Keys are uniformly random, mirroring the TeraGen tool.
func TeraGen(fs *hdfs.FileSystem, dir string, rows int64, maxFileBytes int64, seed int64) ([]string, error) {
	if rows < 0 {
		return nil, fmt.Errorf("workload: negative row count %d", rows)
	}
	rowsPerFile := maxFileBytes / TeraRecordLen
	if rowsPerFile < 1 {
		rowsPerFile = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// value is the next row's value: each record copies it whole, then
	// its row id counts up in place, in ASCII.
	value := teraValue
	var paths []string
	for written := int64(0); written < rows; {
		n := rows - written
		if n > rowsPerFile {
			n = rowsPerFile
		}
		buf := make([]byte, n*TeraRecordLen)
		for i := int64(0); i < n; i++ {
			rec := buf[i*TeraRecordLen : (i+1)*TeraRecordLen]
			rng.Read(rec[:TeraKeyLen])
			copy(rec[TeraKeyLen:], value[:])
			for j := teraIDLen - 1; j >= 0; j-- {
				if value[j] != '9' {
					value[j]++
					break
				}
				value[j] = '0'
			}
		}
		path := fmt.Sprintf("%s/part-%05d", dir, len(paths))
		if err := fs.WriteFile(path, "", buf); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		written += n
	}
	if len(paths) == 0 {
		// Zero rows still produces one empty (valid) input file.
		path := dir + "/part-00000"
		if err := fs.WriteFile(path, "", nil); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Checksum is an order-independent digest of a record multiset: equal
// inputs and outputs have equal checksums regardless of record order.
type Checksum struct {
	Count int64
	Sum   uint64 // sum of per-record CRC-32C pairs, wrapping
	Bytes int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// add folds in a record's CRC-32C pair: the high word is CRC-32C(key),
// the low word continues that CRC over the value, so a byte moved across
// the key/value boundary changes the high word.
func (c *Checksum) add(r kv.Record) {
	k := crc32.Update(0, castagnoli, r.Key)
	v := crc32.Update(k, castagnoli, r.Value)
	c.Sum += uint64(k)<<32 | uint64(v)
	c.Count++
	c.Bytes += int64(len(r.Key) + len(r.Value))
}

// Equal reports whether two checksums match.
func (c Checksum) Equal(o Checksum) bool { return c == o }

// plus folds another digest into c.
func (c *Checksum) plus(o Checksum) {
	c.Count += o.Count
	c.Sum += o.Sum
	c.Bytes += o.Bytes
}

// each runs task(0) … task(n-1) on min(n, GOMAXPROCS) goroutines, each
// taking the next index when it is free, and returns when all are done.
func each(n int, task func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				task(i)
			}
		}()
	}
	wg.Wait()
}

// ScanInput reads each input file once: it digests every record and
// copies out the keys of the first perFile records of each file, the
// input sample TeraSort computes the TotalOrderPartitioner's split points
// from. Each file is one task (each); the samples are joined and the
// first error is picked in path order.
func ScanInput(fs *hdfs.FileSystem, paths []string, format mapred.InputFormat, perFile int) ([][]byte, Checksum, error) {
	type fileScan struct {
		sample [][]byte
		sum    Checksum
		err    error
	}
	scans := make([]fileScan, len(paths))
	each(len(paths), func(i int) {
		sc := &scans[i]
		data, err := fs.ReadFile(paths[i])
		if err != nil {
			sc.err = err
			return
		}
		it, err := format.Records(data)
		if err != nil {
			sc.err = err
			return
		}
		sc.sample = make([][]byte, 0, perFile)
		for n := 0; it.Next(); n++ {
			rec := it.Record()
			if n < perFile {
				sc.sample = append(sc.sample, bytes.Clone(rec.Key))
			}
			sc.sum.add(rec)
		}
		sc.err = it.Err()
	})
	n := 0
	for _, sc := range scans {
		if sc.err != nil {
			return nil, Checksum{}, sc.err
		}
		n += len(sc.sample)
	}
	sample := make([][]byte, 0, n)
	var sum Checksum
	for _, sc := range scans {
		sample = append(sample, sc.sample...)
		sum.plus(sc.sum)
	}
	return sample, sum, nil
}

// ChecksumInput digests all records in the given input files.
func ChecksumInput(fs *hdfs.FileSystem, paths []string, format mapred.InputFormat) (Checksum, error) {
	_, sum, err := ScanInput(fs, paths, format, 0)
	return sum, err
}

// ValidationError describes a TeraValidate failure.
type ValidationError struct{ Reason string }

func (e *ValidationError) Error() string { return "workload: validation failed: " + e.Reason }

// Validate is TeraValidate generalized to any sorted job output: it
// checks that every part-r file is internally sorted, that part files are
// globally ordered (last key of part i ≤ first key of part i+1, which
// holds under a total-order partitioner), and that the output record
// multiset checksum equals want.
//
// As Hadoop's TeraValidate runs one map per output file, each part is one
// task (each), which walks the part's borrowed blocks once through a
// kv.RunScanner: the run CRC, the in-part order and the digest all come
// from that pass. A fold in path order then checks the order across
// parts, sums the digests and picks the error a walk of the parts one
// after another meets first: for a part, an error reading it, its framing
// or its run CRC; then a first key below the last key before it; then a
// key below the one before it in the part, or a record that does not
// decode.
func Validate(fs *hdfs.FileSystem, outputDir string, cmp kv.Comparator, want Checksum, checkGlobalOrder bool) error {
	parts := fs.List(outputDir + "/")
	if len(parts) == 0 {
		return &ValidationError{Reason: "no output files in " + outputDir}
	}
	scans := make([]partScan, len(parts))
	each(len(parts), func(i int) { scans[i] = scanPart(fs, parts[i], cmp) })
	var got Checksum
	var prev []byte // the last key of the parts before, once got.Count > 0
	for i, sc := range scans {
		if sc.err != nil {
			return sc.err
		}
		if checkGlobalOrder && got.Count > 0 && sc.sum.Count > 0 && cmp(prev, sc.first) > 0 {
			return &ValidationError{Reason: fmt.Sprintf("global order broken entering %s", parts[i])}
		}
		if sc.walkErr != nil {
			return sc.walkErr
		}
		if sc.sum.Count > 0 {
			prev = sc.last
		}
		got.plus(sc.sum)
	}
	if !got.Equal(want) {
		return &ValidationError{Reason: fmt.Sprintf("checksum mismatch: got %+v want %+v", got, want)}
	}
	return nil
}

// partScan is what one part's task found.
type partScan struct {
	sum         Checksum
	first, last []byte // the part's first and last keys, if sum.Count > 0
	err         error  // reading the part, its framing or its run CRC
	walkErr     error  // the first key out of order, or a record that does not decode
}

// scanPart walks one output part's blocks in place. Every key it keeps
// stays whole: the scanner keeps the record before the current one whole
// and is not reused, so prev and last may alias its carry buffer; first
// would not stay whole and is copied.
func scanPart(fs *hdfs.FileSystem, path string, cmp kv.Comparator) (sc partScan) {
	info, err := fs.Stat(path)
	if err != nil {
		sc.err = err
		return sc
	}
	s := kv.NewRunScanner(info.Size)
	sc.err = fs.Blocks(path, func(block []byte) error {
		s.Feed(block)
		for s.Next() {
			rec := s.Record()
			if sc.sum.Count == 0 {
				sc.first = bytes.Clone(rec.Key)
			} else if sc.walkErr == nil && cmp(sc.last, rec.Key) > 0 {
				sc.walkErr = &ValidationError{Reason: fmt.Sprintf("%s not sorted", path)}
			}
			sc.sum.add(rec)
			sc.last = rec.Key
		}
		return nil
	})
	if sc.err != nil {
		return sc
	}
	if err := s.Close(); err != nil {
		sc.err = fmt.Errorf("workload: %s: %w", path, err)
	} else if sc.walkErr == nil {
		sc.walkErr = s.Err()
	}
	return sc
}

// RandomWriter geometry, following Hadoop's RandomWriter defaults scaled
// to the paper's observation that combined key+value reaches 20,000 B.
const (
	RandMinKey   = 10
	RandMaxKey   = 1000
	RandMinValue = 0
	RandMaxValue = 19000
)

// RandomWriter writes approximately totalBytes of random variable-size
// records into dir as kv-run part files, returning the paths. Each file's
// encoded run, framing included, is at most maxFileBytes, as TeraGen's
// files are, except that every file holds at least one record: a record
// larger than the bound gets a file of its own.
func RandomWriter(fs *hdfs.FileSystem, dir string, totalBytes, maxFileBytes, seed int64) ([]string, error) {
	if totalBytes < 0 {
		return nil, fmt.Errorf("workload: negative size %d", totalBytes)
	}
	rng := rand.New(rand.NewSource(seed))
	frame := int64(len(kv.WriteRun(nil)))
	var paths []string
	var next kv.Record // drawn, and waiting for a file with room
	remaining := totalBytes
	for remaining > 0 || len(paths) == 0 {
		var recs []kv.Record
		runBytes := frame
		for remaining > 0 {
			if next.Key == nil {
				next.Key = make([]byte, RandMinKey+rng.Intn(RandMaxKey-RandMinKey+1))
				next.Value = make([]byte, RandMinValue+rng.Intn(RandMaxValue-RandMinValue+1))
				rng.Read(next.Key)
				rng.Read(next.Value)
			}
			n := int64(next.EncodedLen())
			if len(recs) > 0 && runBytes+n > maxFileBytes {
				break
			}
			recs = append(recs, next)
			runBytes += n
			remaining -= int64(len(next.Key) + len(next.Value))
			next = kv.Record{}
		}
		path := fmt.Sprintf("%s/part-%05d", dir, len(paths))
		if err := fs.WriteFile(path, "", kv.WriteRun(recs)); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// WordGen writes newline-separated words for the wordcount example.
func WordGen(fs *hdfs.FileSystem, path string, words []string, repeats int) error {
	var buf bytes.Buffer
	for i := 0; i < repeats; i++ {
		for _, w := range words {
			buf.WriteString(w)
			buf.WriteByte('\n')
		}
	}
	return fs.WriteFile(path, "", buf.Bytes())
}
