package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/hdfs"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/storage"
)

// smallBlock cuts every TeraSort-shaped part into blocks that its
// 102-byte records straddle.
const smallBlock = 256

// writeParts stores runs as /out/part-r-00000, -00001, … in a file system
// of the given block size whose one DataNode keeps its blocks in the
// returned store.
func writeParts(t *testing.T, blockSize int64, runs ...[]byte) (*hdfs.FileSystem, *storage.LocalStore) {
	t.Helper()
	store := storage.NewLocalStore()
	fs := hdfs.New(blockSize, 1)
	if err := fs.AddDataNode(hdfs.NewDataNode("n0", store)); err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if err := fs.WriteFile(fmt.Sprintf("/out/part-r-%05d", i), "", run); err != nil {
			t.Fatal(err)
		}
	}
	return fs, store
}

// descending returns recs in reverse order: an unsorted part.
func descending(recs []kv.Record) []kv.Record {
	out := slices.Clone(recs)
	slices.Reverse(out)
	return out
}

// withBadCRC returns run with its trailer's CRC flipped.
func withBadCRC(run []byte) []byte {
	run = bytes.Clone(run)
	run[len(run)-1] ^= 0x01
	return run
}

// framed frames body as a run whose trailer counts count records and
// carries the body's true CRC, whatever the body holds.
func framed(body []byte, count uint64) []byte {
	run := append([]byte("RMR1"), body...)
	run = binary.LittleEndian.AppendUint64(run, count)
	return binary.LittleEndian.AppendUint32(run, crc32.ChecksumIEEE(body))
}

// recordStarts returns the offset in run of each record and of the
// trailer.
func recordStarts(t *testing.T, run []byte) []int {
	t.Helper()
	starts := []int{4}
	for off := 4; off < len(run)-12; {
		_, n, err := kv.DecodeRecord(run[off : len(run)-12])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		starts = append(starts, off)
	}
	return starts
}

// TestValidateErrorPrecedence: when a part breaks several rules, or
// several parts break rules, Validate reports what a walk of the parts
// one after another meets first — for one part its run CRC, then the
// order entering it, then the order inside it — and a checksum mismatch
// only when every part passes. Each row runs with one block per part and
// with parts cut into 256-byte blocks.
func TestValidateErrorPrecedence(t *testing.T) {
	recs := teraRecords(8)
	lo, hi := recs[:4], recs[4:]
	all := checksumOf(recs)
	cut := kv.EncodeAll(hi)
	for _, tc := range []struct {
		name string
		runs [][]byte
		want Checksum
		err  string
	}{
		{"bad run CRC and unsorted records in one part",
			[][]byte{withBadCRC(kv.WriteRun(descending(recs)))}, all,
			"workload: /out/part-r-00000: kv: run checksum mismatch"},
		{"part 0 unsorted, part 1 bad run CRC",
			[][]byte{kv.WriteRun(descending(lo)), withBadCRC(kv.WriteRun(hi))}, all,
			"workload: validation failed: /out/part-r-00000 not sorted"},
		{"order broken entering part 1, which is unsorted inside",
			[][]byte{kv.WriteRun(hi), kv.WriteRun(descending(lo))}, all,
			"workload: validation failed: global order broken entering /out/part-r-00001"},
		{"unsorted records before one that does not decode",
			[][]byte{framed(append(kv.EncodeAll(descending(lo)), cut[:len(cut)-1]...), 8)}, all,
			"workload: validation failed: /out/part-r-00000 not sorted"},
		{"a record that does not decode",
			[][]byte{kv.WriteRun(lo), framed(cut[:len(cut)-1], 4)}, all,
			"kv: corrupt record stream"},
		{"bad magic after an unsorted part",
			[][]byte{kv.WriteRun(descending(lo)), append([]byte("XMR1"), kv.WriteRun(hi)[4:]...)}, all,
			"workload: validation failed: /out/part-r-00000 not sorted"},
		{"unsorted part and a wrong digest",
			[][]byte{kv.WriteRun(lo), kv.WriteRun(descending(hi))}, checksumOf(lo),
			"workload: validation failed: /out/part-r-00001 not sorted"},
		{"every part passes but the digest",
			[][]byte{kv.WriteRun(lo), kv.WriteRun(hi)}, checksumOf(lo),
			"workload: validation failed: checksum mismatch"},
		{"every part passes",
			[][]byte{kv.WriteRun(lo), kv.WriteRun(hi)}, all, ""},
	} {
		for _, blockSize := range []int64{64 << 10, smallBlock} {
			fs, _ := writeParts(t, blockSize, tc.runs...)
			err := Validate(fs, "/out", kv.BytesComparator, tc.want, true)
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.err)) {
				t.Errorf("%s (%d-byte blocks): err = %v, want %q", tc.name, blockSize, err, tc.err)
			}
		}
	}
}

// TestValidateMultiBlockStraddlingFlip flips one byte of the record that
// straddles each block boundary in turn, in the bytes written, so every
// block CRC is valid and only the run CRC can catch it.
func TestValidateMultiBlockStraddlingFlip(t *testing.T) {
	recs := teraRecords(40)
	want := checksumOf(recs)
	run := kv.WriteRun(recs)
	fs, _ := writeParts(t, smallBlock, run)
	if err := Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatalf("unflipped: %v", err)
	}
	starts := recordStarts(t, run)
	flips := 0
	for b := smallBlock; b < len(run)-12; b += smallBlock {
		if _, found := slices.BinarySearch(starts, b); found {
			continue // a record begins at this boundary: none straddles it
		}
		bad := bytes.Clone(run)
		bad[b] ^= 0x20
		fs, _ := writeParts(t, smallBlock, bad)
		if err := Validate(fs, "/out", kv.BytesComparator, want, true); !errors.Is(err, kv.ErrBadChecksum) {
			t.Errorf("byte %d of the record straddling it flipped: err = %v, want the run CRC's", b, err)
		}
		flips++
	}
	if flips < 10 {
		t.Fatalf("only %d boundaries had a straddling record", flips)
	}
}

// TestValidateUnsortedStraddlingRecords: records longer than a block, so
// each is assembled across a boundary and the key before it was too. Two
// adjacent ones swapped must read as unsorted, which they only can if the
// key before stays whole while the next is assembled.
func TestValidateUnsortedStraddlingRecords(t *testing.T) {
	recs := make([]kv.Record, 12)
	for i := range recs {
		recs[i] = kv.Record{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: bytes.Repeat([]byte{byte('a' + i)}, 300)}
	}
	want := checksumOf(recs)
	for swap := 0; swap+1 < len(recs); swap++ {
		unsorted := slices.Clone(recs)
		unsorted[swap], unsorted[swap+1] = unsorted[swap+1], unsorted[swap]
		fs, _ := writeParts(t, smallBlock, kv.WriteRun(unsorted))
		err := Validate(fs, "/out", kv.BytesComparator, want, true)
		if err == nil || err.Error() != "workload: validation failed: /out/part-r-00000 not sorted" {
			t.Fatalf("records %d and %d swapped: err = %v, want not sorted", swap, swap+1, err)
		}
	}
}

// TestValidateMultiBlockTruncatedTrailer: a part whose trailer is split
// across its last block boundary, cut short by one byte, fails.
func TestValidateMultiBlockTruncatedTrailer(t *testing.T) {
	recs := teraRecords(20)
	run := kv.WriteRun(recs)
	run = run[:len(run)-1]
	if last := len(run) / smallBlock * smallBlock; last <= len(run)-12 {
		t.Fatalf("the last boundary, %d, does not split the trailer of a %d-byte part", last, len(run))
	}
	fs, _ := writeParts(t, smallBlock, run)
	if err := Validate(fs, "/out", kv.BytesComparator, checksumOf(recs), true); !errors.Is(err, kv.ErrBadChecksum) {
		t.Fatalf("err = %v, want the run CRC's", err)
	}
}

// TestValidateStraddlingLastKey: a part whose last record straddles a
// block boundary, so its last key is read from the scanner's carry
// buffer, then a part whose first key sorts below it. The key must still
// be the last key when the parts are folded.
func TestValidateStraddlingLastKey(t *testing.T) {
	recs := teraRecords(6)
	first, second := recs[:3], recs[3:]
	smaller := kv.Record{Key: bytes.Clone(first[2].Key), Value: second[0].Value}
	smaller.Key[len(smaller.Key)-1]--
	second[0] = smaller
	run := kv.WriteRun(first)
	starts := recordStarts(t, run)
	if last := starts[len(starts)-2]; last/smallBlock == (starts[len(starts)-1]-1)/smallBlock {
		t.Fatalf("the last record, at %d..%d, does not straddle a boundary", last, starts[len(starts)-1])
	}
	fs, _ := writeParts(t, smallBlock, run, kv.WriteRun(second), kv.WriteRun(teraRecords(12)[9:]))
	want := checksumOf(first)
	want.plus(checksumOf(second))
	want.plus(checksumOf(teraRecords(12)[9:]))
	err := Validate(fs, "/out", kv.BytesComparator, want, true)
	if err == nil || err.Error() != "workload: validation failed: global order broken entering /out/part-r-00001" {
		t.Fatalf("err = %v, want the global order broken entering part 1", err)
	}
	if err := Validate(fs, "/out", kv.BytesComparator, want, false); err != nil {
		t.Fatalf("without the global order: %v", err)
	}
}

// TestValidateCatchesBlockRot: a stored byte flipped behind HDFS's back
// fails the block's CRC, and Validate reports the read error.
func TestValidateCatchesBlockRot(t *testing.T) {
	recs := teraRecords(10)
	fs, store := writeParts(t, smallBlock, kv.WriteRun(recs))
	names := store.List("")
	if len(names) < 3 {
		t.Fatalf("%d blocks stored, want several", len(names))
	}
	stored, err := store.Get(names[1])
	if err != nil {
		t.Fatal(err)
	}
	rotten := bytes.Clone(stored)
	rotten[7] ^= 0x04
	store.OverwriteOwned(names[1], rotten)
	if err := Validate(fs, "/out", kv.BytesComparator, checksumOf(recs), true); !errors.Is(err, hdfs.ErrCorrupt) {
		t.Fatalf("err = %v, want the block read error", err)
	}
}

// TestValidateAllocBudget: Validate of an 8-part output whose parts span
// many blocks reads the blocks in place, so it allocates less than one
// part's size (a ReadFile of each part would allocate all eight).
func TestValidateAllocBudget(t *testing.T) {
	const parts, perPart = 8, 5000
	recs := teraRecords(parts * perPart)
	runs := make([][]byte, parts)
	for i := range runs {
		runs[i] = kv.WriteRun(recs[i*perPart : (i+1)*perPart])
	}
	fs, _ := writeParts(t, 64<<10, runs...)
	want := checksumOf(recs)
	allocated := alloctest.Bytes(3, func() {
		if err := Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(len(runs[0])); allocated >= budget {
		t.Errorf("Validate of %d parts of %d bytes allocated %d bytes, budget %d", parts, len(runs[0]), allocated, budget)
	}
}

// TestScanInputJoinsInPathOrder: the per-file tasks' samples are joined,
// and their first error picked, in path order.
func TestScanInputJoinsInPathOrder(t *testing.T) {
	fs := testFS(t)
	paths, err := TeraGen(fs, "/in", 900, 10_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	sample, sum, err := ScanInput(fs, paths, mapred.TeraInput, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wantSample [][]byte
	var wantSum Checksum
	for _, p := range paths {
		s, c, err := ScanInput(fs, []string{p}, mapred.TeraInput, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantSample = append(wantSample, s...)
		wantSum.plus(c)
	}
	if sum != wantSum || !slices.EqualFunc(sample, wantSample, bytes.Equal) {
		t.Fatalf("joined scan differs from the files scanned one by one")
	}
	bad := append(slices.Clone(paths[:3]), "/in/missing-1", paths[3], "/in/missing-2")
	if _, _, err := ScanInput(fs, bad, mapred.TeraInput, 5); !errors.Is(err, hdfs.ErrNotFound) || !strings.Contains(err.Error(), "missing-1") {
		t.Fatalf("err = %v, want the first missing file's", err)
	}
}
