// Package workload implements the paper's benchmark workloads (§II-A):
// TeraGen/TeraSort/TeraValidate with fixed 100-byte records, and
// RandomWriter/Sort with variable-size records whose combined key+value
// length reaches 20,000 bytes (§IV-C) — the property that breaks
// Hadoop-A's size-oblivious packet filling.
package workload

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

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
	var paths []string
	for written := int64(0); written < rows; {
		n := rows - written
		if n > rowsPerFile {
			n = rowsPerFile
		}
		buf := make([]byte, n*TeraRecordLen)
		var digits [20]byte
		for i := int64(0); i < n; i++ {
			rec := buf[i*TeraRecordLen : (i+1)*TeraRecordLen]
			rng.Read(rec[:TeraKeyLen])
			// Value: row id in ASCII, zero-padded to 20 digits ("%020d"),
			// plus filler, like teragen's layout.
			id := strconv.AppendInt(digits[:0], written+i, 10)
			pad := TeraKeyLen + len(digits) - len(id)
			for j := TeraKeyLen; j < pad; j++ {
				rec[j] = '0'
			}
			copy(rec[pad:], id)
			for j := TeraKeyLen + 20; j < TeraRecordLen; j++ {
				rec[j] = byte('A' + (j % 26))
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

// SampleKeys reads up to perFile records from each input file and returns
// their keys — the input sampling step TeraSort uses to compute the
// TotalOrderPartitioner's split points.
func SampleKeys(fs *hdfs.FileSystem, paths []string, format mapred.InputFormat, perFile int) ([][]byte, error) {
	var sample [][]byte
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			return nil, err
		}
		it, err := format.Records(data)
		if err != nil {
			return nil, err
		}
		for i := 0; i < perFile && it.Next(); i++ {
			k := make([]byte, len(it.Record().Key))
			copy(k, it.Record().Key)
			sample = append(sample, k)
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
	}
	return sample, nil
}

// Checksum is an order-independent digest of a record multiset: equal
// inputs and outputs have equal checksums regardless of record order.
type Checksum struct {
	Count int64
	Sum   uint64 // sum of per-record FNV-1a hashes, wrapping
	Bytes int64
}

// add folds in FNV-1a of key ‖ 0x00 ‖ value, written out so a record
// costs no hasher and no separator slice.
func (c *Checksum) add(r kv.Record) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range r.Key {
		h = (h ^ uint64(b)) * prime64
	}
	h *= prime64 // the 0x00 separator: h ^ 0 is h
	for _, b := range r.Value {
		h = (h ^ uint64(b)) * prime64
	}
	c.Sum += h
	c.Count++
	c.Bytes += int64(len(r.Key) + len(r.Value))
}

// Equal reports whether two checksums match.
func (c Checksum) Equal(o Checksum) bool { return c == o }

// ChecksumInput digests all records in the given input files.
func ChecksumInput(fs *hdfs.FileSystem, paths []string, format mapred.InputFormat) (Checksum, error) {
	var sum Checksum
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			return Checksum{}, err
		}
		it, err := format.Records(data)
		if err != nil {
			return Checksum{}, err
		}
		for it.Next() {
			sum.add(it.Record())
		}
		if err := it.Err(); err != nil {
			return Checksum{}, err
		}
	}
	return sum, nil
}

// ValidationError describes a TeraValidate failure.
type ValidationError struct{ Reason string }

func (e *ValidationError) Error() string { return "workload: validation failed: " + e.Reason }

// Validate is TeraValidate generalized to any sorted job output: it
// checks that every part-r file is internally sorted, that part files are
// globally ordered (last key of part i ≤ first key of part i+1, which
// holds under a total-order partitioner), and that the output record
// multiset checksum equals want.
func Validate(fs *hdfs.FileSystem, outputDir string, cmp kv.Comparator, want Checksum, checkGlobalOrder bool) error {
	parts := fs.List(outputDir + "/")
	if len(parts) == 0 {
		return &ValidationError{Reason: "no output files in " + outputDir}
	}
	var got Checksum
	var prevLast []byte
	havePrev := false
	for _, p := range parts {
		data, err := fs.ReadFile(p)
		if err != nil {
			return err
		}
		rr, err := kv.NewRunReader(data)
		if err != nil {
			return fmt.Errorf("workload: %s: %w", p, err)
		}
		if err := kv.VerifyChecksum(data); err != nil {
			return fmt.Errorf("workload: %s: %w", p, err)
		}
		var prev []byte
		first := true
		for rr.Next() {
			rec := rr.Record()
			got.add(rec)
			if first && checkGlobalOrder && havePrev && cmp(prevLast, rec.Key) > 0 {
				return &ValidationError{Reason: fmt.Sprintf("global order broken entering %s", p)}
			}
			if !first && cmp(prev, rec.Key) > 0 {
				return &ValidationError{Reason: fmt.Sprintf("%s not sorted", p)}
			}
			prev = append(prev[:0], rec.Key...)
			first = false
		}
		if err := rr.Err(); err != nil {
			return err
		}
		if !first {
			prevLast = append(prevLast[:0], prev...)
			havePrev = true
		}
	}
	if !got.Equal(want) {
		return &ValidationError{Reason: fmt.Sprintf("checksum mismatch: got %+v want %+v", got, want)}
	}
	return nil
}

// IsValidationError reports whether err is a validation failure (as
// opposed to an I/O error).
func IsValidationError(err error) bool {
	var ve *ValidationError
	return errors.As(err, &ve)
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
// records into dir as kv-run part files of at most maxFileBytes each,
// returning the paths.
func RandomWriter(fs *hdfs.FileSystem, dir string, totalBytes, maxFileBytes, seed int64) ([]string, error) {
	if totalBytes < 0 {
		return nil, fmt.Errorf("workload: negative size %d", totalBytes)
	}
	rng := rand.New(rand.NewSource(seed))
	var paths []string
	remaining := totalBytes
	for remaining > 0 || len(paths) == 0 {
		var recs []kv.Record
		fileBytes := int64(0)
		for fileBytes < maxFileBytes && remaining > 0 {
			kl := RandMinKey + rng.Intn(RandMaxKey-RandMinKey+1)
			vl := RandMinValue + rng.Intn(RandMaxValue-RandMinValue+1)
			key := make([]byte, kl)
			val := make([]byte, vl)
			rng.Read(key)
			rng.Read(val)
			recs = append(recs, kv.Record{Key: key, Value: val})
			sz := int64(kl + vl)
			fileBytes += sz
			remaining -= sz
		}
		run := kv.WriteRun(recs)
		path := fmt.Sprintf("%s/part-%05d", dir, len(paths))
		if err := fs.WriteFile(path, "", run); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		if remaining <= 0 {
			break
		}
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
