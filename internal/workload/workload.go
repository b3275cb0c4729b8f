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
	"hash/crc32"
	"math/rand"

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

// ScanInput reads each input file once: it digests every record and
// copies out the keys of the first perFile records of each file, the
// input sample TeraSort computes the TotalOrderPartitioner's split points
// from.
func ScanInput(fs *hdfs.FileSystem, paths []string, format mapred.InputFormat, perFile int) ([][]byte, Checksum, error) {
	var sample [][]byte
	var sum Checksum
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			return nil, Checksum{}, err
		}
		it, err := format.Records(data)
		if err != nil {
			return nil, Checksum{}, err
		}
		for i := 0; it.Next(); i++ {
			rec := it.Record()
			if i < perFile {
				sample = append(sample, bytes.Clone(rec.Key))
			}
			sum.add(rec)
		}
		if err := it.Err(); err != nil {
			return nil, Checksum{}, err
		}
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
func Validate(fs *hdfs.FileSystem, outputDir string, cmp kv.Comparator, want Checksum, checkGlobalOrder bool) error {
	parts := fs.List(outputDir + "/")
	if len(parts) == 0 {
		return &ValidationError{Reason: "no output files in " + outputDir}
	}
	var got Checksum
	// prev is the last key seen, in this part or an earlier one. Keys alias
	// the parts' bytes, which a later read does not overwrite (stored
	// objects are immutable), so it needs no copy.
	var prev []byte
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
		first := true
		for rr.Next() {
			rec := rr.Record()
			got.add(rec)
			if havePrev && cmp(prev, rec.Key) > 0 {
				if !first {
					return &ValidationError{Reason: fmt.Sprintf("%s not sorted", p)}
				}
				if checkGlobalOrder {
					return &ValidationError{Reason: fmt.Sprintf("global order broken entering %s", p)}
				}
			}
			prev, havePrev, first = rec.Key, true, false
		}
		if err := rr.Err(); err != nil {
			return err
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
