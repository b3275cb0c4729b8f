package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"rdmamr/internal/hdfs"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

func testFS(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	fs := hdfs.New(64<<10, 1)
	if err := fs.AddDataNode(hdfs.NewDataNode("n0", nil)); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestTeraGenGeometry(t *testing.T) {
	fs := testFS(t)
	paths, err := TeraGen(fs, "/in", 500, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10,000 B files hold 100 records each → 5 files.
	if len(paths) != 5 {
		t.Fatalf("files = %d, want 5", len(paths))
	}
	var total int64
	for _, p := range paths {
		info, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size%TeraRecordLen != 0 {
			t.Fatalf("%s size %d not record-aligned", p, info.Size)
		}
		total += info.Size
	}
	if total != 500*TeraRecordLen {
		t.Fatalf("total = %d", total)
	}
}

func TestTeraGenParsesAsTeraInput(t *testing.T) {
	fs := testFS(t)
	paths, _ := TeraGen(fs, "/in", 50, 100_000, 2)
	data, _ := fs.ReadFile(paths[0])
	it, err := mapred.TeraInput.Records(data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		rec := it.Record()
		if len(rec.Key) != TeraKeyLen || len(rec.Value) != TeraValueLen {
			t.Fatalf("record geometry %d/%d", len(rec.Key), len(rec.Value))
		}
		n++
	}
	if n != 50 {
		t.Fatalf("records = %d", n)
	}
}

func TestTeraGenDeterministic(t *testing.T) {
	fs1, fs2 := testFS(t), testFS(t)
	_, _ = TeraGen(fs1, "/in", 100, 5000, 7)
	_, _ = TeraGen(fs2, "/in", 100, 5000, 7)
	a, _ := fs1.ReadFile("/in/part-00000")
	b, _ := fs2.ReadFile("/in/part-00000")
	if string(a) != string(b) {
		t.Fatal("same seed produced different data")
	}
	fs3 := testFS(t)
	_, _ = TeraGen(fs3, "/in", 100, 5000, 8)
	c, _ := fs3.ReadFile("/in/part-00000")
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestTeraGenZeroRows(t *testing.T) {
	fs := testFS(t)
	paths, err := TeraGen(fs, "/in", 0, 5000, 1)
	if err != nil || len(paths) != 1 {
		t.Fatalf("paths=%v err=%v", paths, err)
	}
	data, _ := fs.ReadFile(paths[0])
	if len(data) != 0 {
		t.Fatal("zero-row input not empty")
	}
}

func TestTeraGenNegativeRows(t *testing.T) {
	fs := testFS(t)
	if _, err := TeraGen(fs, "/in", -1, 5000, 1); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestSampleKeys(t *testing.T) {
	fs := testFS(t)
	paths, _ := TeraGen(fs, "/in", 300, 10_000, 3)
	sample, sum, err := ScanInput(fs, paths, mapred.TeraInput, 20)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ChecksumInput(fs, paths, mapred.TeraInput); sum != want {
		t.Fatalf("ScanInput checksum %+v, ChecksumInput %+v", sum, want)
	}
	if len(sample) != 20*len(paths) {
		t.Fatalf("sample = %d", len(sample))
	}
	for _, k := range sample {
		if len(k) != TeraKeyLen {
			t.Fatalf("key len %d", len(k))
		}
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	fs := testFS(t)
	recs := []kv.Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}
	_ = fs.WriteFile("/x", "", kv.WriteRun(recs))
	_ = fs.WriteFile("/y", "", kv.WriteRun([]kv.Record{recs[1], recs[0]}))
	cx, err := ChecksumInput(fs, []string{"/x"}, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := ChecksumInput(fs, []string{"/y"}, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	if !cx.Equal(cy) {
		t.Fatal("checksum is order-dependent")
	}
}

func TestChecksumDistinguishesContent(t *testing.T) {
	fs := testFS(t)
	_ = fs.WriteFile("/x", "", kv.WriteRun([]kv.Record{{Key: []byte("a"), Value: []byte("1")}}))
	_ = fs.WriteFile("/y", "", kv.WriteRun([]kv.Record{{Key: []byte("a"), Value: []byte("2")}}))
	cx, _ := ChecksumInput(fs, []string{"/x"}, mapred.RunInput{})
	cy, _ := ChecksumInput(fs, []string{"/y"}, mapred.RunInput{})
	if cx.Equal(cy) {
		t.Fatal("different content, equal checksum")
	}
}

func TestChecksumKeyValueBoundary(t *testing.T) {
	// ("ab","c") must differ from ("a","bc").
	fs := testFS(t)
	_ = fs.WriteFile("/x", "", kv.WriteRun([]kv.Record{{Key: []byte("ab"), Value: []byte("c")}}))
	_ = fs.WriteFile("/y", "", kv.WriteRun([]kv.Record{{Key: []byte("a"), Value: []byte("bc")}}))
	cx, _ := ChecksumInput(fs, []string{"/x"}, mapred.RunInput{})
	cy, _ := ChecksumInput(fs, []string{"/y"}, mapred.RunInput{})
	if cx.Equal(cy) {
		t.Fatal("kv boundary not part of checksum")
	}
}

// TestChecksumGolden pins the digest values (the CRC-32C pair of each
// record, summed) for a seeded TeraGen and for the empty-key / empty-value
// corners.
func TestChecksumGolden(t *testing.T) {
	fs := testFS(t)
	paths, err := TeraGen(fs, "/in", 5000, 128<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChecksumInput(fs, paths, mapred.TeraInput)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Checksum{Count: 5000, Sum: 4792870791117881150, Bytes: 500000}); got != want {
		t.Fatalf("TeraGen(seed 42) checksum = %+v, want %+v", got, want)
	}
	var c Checksum
	c.add(kv.Record{})
	c.add(kv.Record{Key: []byte("a")})
	c.add(kv.Record{Value: []byte("a")})
	if want := (Checksum{Count: 3, Sum: 13965736324416702048, Bytes: 2}); c != want {
		t.Fatalf("corner-case checksum = %+v, want %+v", c, want)
	}
}

// TestTeraGenBytesPinned pins TeraGen's output independently of Checksum:
// a SHA-256 over the part files of TeraGen(seed 42, 5 000 rows, 128 KiB
// files) in path order, recorded from the per-byte generator that the
// value template replaced.
func TestTeraGenBytesPinned(t *testing.T) {
	fs := testFS(t)
	paths, err := TeraGen(fs, "/in", 5000, 128<<10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(paths) || len(paths) != 4 {
		t.Fatalf("paths = %v, want four in path order", paths)
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	const want = "8e16f2b17b1de3baf90fc697aa2c8fedfc43f615d8d60d07344a287e4cf91abb"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("TeraGen(seed 42) SHA-256 = %s, want %s", got, want)
	}
}

// teraRecords returns n distinct records of TeraSort geometry.
func teraRecords(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{
			Key:   []byte(fmt.Sprintf("key-%06d", i)),
			Value: []byte(fmt.Sprintf("%020d%s", i*7919, bytes.Repeat([]byte{byte('a' + i)}, TeraValueLen-20))),
		}
	}
	return recs
}

func checksumOf(recs []kv.Record) Checksum {
	var c Checksum
	for _, r := range recs {
		c.add(r)
	}
	return c
}

// TestChecksumCatchesMutations: every mutation below keeps Count and Bytes,
// so only Sum can catch it, and it must; a reordering must not change it.
func TestChecksumCatchesMutations(t *testing.T) {
	base := checksumOf(teraRecords(4))
	for _, tc := range []struct {
		name   string
		mutate func(rs []kv.Record)
	}{
		{"key byte flipped", func(rs []kv.Record) { rs[1].Key[3] ^= 0x01 }},
		{"value byte flipped", func(rs []kv.Record) { rs[2].Value[45] ^= 0x80 }},
		{"byte moved across the key/value boundary", func(rs []kv.Record) {
			k := rs[0].Key
			rs[0] = kv.Record{Key: k[:len(k)-1], Value: append(k[len(k)-1:], rs[0].Value...)}
		}},
		{"two records swap values", func(rs []kv.Record) { rs[0].Value, rs[3].Value = rs[3].Value, rs[0].Value }},
		{"one record dropped, another duplicated", func(rs []kv.Record) { rs[2] = rs[1] }},
	} {
		rs := teraRecords(4)
		tc.mutate(rs)
		got := checksumOf(rs)
		if got.Count != base.Count || got.Bytes != base.Bytes {
			t.Fatalf("%s: count/bytes %d/%d, want %d/%d", tc.name, got.Count, got.Bytes, base.Count, base.Bytes)
		}
		if got.Sum == base.Sum {
			t.Errorf("%s: checksum unchanged", tc.name)
		}
	}
	rs := teraRecords(4)
	slices.Reverse(rs)
	if got := checksumOf(rs); got != base {
		t.Errorf("reordered records: %+v, want %+v", got, base)
	}
}

// FuzzChecksum: flipping any one byte of a record (key or value) changes
// the digest, and the digest does not depend on record order.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, []byte("value"), uint(0), byte(0x01))
	f.Add([]byte("key"), []byte{}, uint(2), byte(0x40))
	f.Add(bytes.Repeat([]byte{'k'}, TeraKeyLen), bytes.Repeat([]byte{'v'}, TeraValueLen), uint(57), byte(0x80))
	f.Fuzz(func(t *testing.T, key, value []byte, pos uint, flip byte) {
		rec := kv.Record{Key: key, Value: value}
		other := kv.Record{Key: []byte("other"), Value: []byte("record")}
		base := checksumOf([]kv.Record{rec, other})
		if got := checksumOf([]kv.Record{other, rec}); got != base {
			t.Fatalf("order changed the digest: %+v vs %+v", got, base)
		}
		n := uint(len(key) + len(value))
		if n == 0 || flip == 0 {
			return
		}
		mut := kv.Record{Key: bytes.Clone(key), Value: bytes.Clone(value)}
		if i := pos % n; i < uint(len(key)) {
			mut.Key[i] ^= flip
		} else {
			mut.Value[i-uint(len(key))] ^= flip
		}
		if got := checksumOf([]kv.Record{mut, other}); got == base {
			t.Fatalf("byte %d ^ %#x of %q/%q left the digest at %+v", pos%n, flip, key, value, got)
		}
	})
}

func TestValidateAcceptsSortedOutput(t *testing.T) {
	fs := testFS(t)
	recs := []kv.Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
	}
	_ = fs.WriteFile("/out/part-r-00000", "", kv.WriteRun(recs[:2]))
	_ = fs.WriteFile("/out/part-r-00001", "", kv.WriteRun(recs[2:]))
	var want Checksum
	for _, r := range recs {
		want.add(r)
	}
	if err := Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnsortedPart(t *testing.T) {
	fs := testFS(t)
	recs := []kv.Record{
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("1")},
	}
	_ = fs.WriteFile("/out/part-r-00000", "", kv.WriteRun(recs))
	var want Checksum
	for _, r := range recs {
		want.add(r)
	}
	err := Validate(fs, "/out", kv.BytesComparator, want, false)
	if !errors.As(err, new(*ValidationError)) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsGlobalOrderViolation(t *testing.T) {
	fs := testFS(t)
	_ = fs.WriteFile("/out/part-r-00000", "", kv.WriteRun([]kv.Record{{Key: []byte("z")}}))
	_ = fs.WriteFile("/out/part-r-00001", "", kv.WriteRun([]kv.Record{{Key: []byte("a")}}))
	var want Checksum
	want.add(kv.Record{Key: []byte("z")})
	want.add(kv.Record{Key: []byte("a")})
	err := Validate(fs, "/out", kv.BytesComparator, want, true)
	if !errors.As(err, new(*ValidationError)) {
		t.Fatalf("err = %v", err)
	}
	// Without the global-order requirement (hash partitioning), it passes.
	if err := Validate(fs, "/out", kv.BytesComparator, want, false); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsChecksumMismatch(t *testing.T) {
	fs := testFS(t)
	_ = fs.WriteFile("/out/part-r-00000", "", kv.WriteRun([]kv.Record{{Key: []byte("a")}}))
	err := Validate(fs, "/out", kv.BytesComparator, Checksum{Count: 99}, true)
	if !errors.As(err, new(*ValidationError)) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsEmptyOutput(t *testing.T) {
	fs := testFS(t)
	if err := Validate(fs, "/nothing", kv.BytesComparator, Checksum{}, true); !errors.As(err, new(*ValidationError)) {
		t.Fatalf("err = %v", err)
	}
}

func TestRandomWriterSizes(t *testing.T) {
	fs := testFS(t)
	paths, err := RandomWriter(fs, "/in", 100_000, 40_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("files = %d", len(paths))
	}
	sum, err := ChecksumInput(fs, paths, mapred.RunInput{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Bytes < 100_000 || sum.Bytes > 130_000 {
		t.Fatalf("bytes = %d, want ≈100000", sum.Bytes)
	}
	// Record geometry: keys within [10,1000], values within [0,19000].
	for _, p := range paths {
		data, _ := fs.ReadFile(p)
		rr, err := kv.NewRunReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for rr.Next() {
			r := rr.Record()
			if len(r.Key) < RandMinKey || len(r.Key) > RandMaxKey {
				t.Fatalf("key len %d", len(r.Key))
			}
			if len(r.Value) > RandMaxValue {
				t.Fatalf("value len %d", len(r.Value))
			}
			if len(r.Key)+len(r.Value) > 20000 {
				t.Fatalf("combined kv %d exceeds paper's 20000B bound", len(r.Key)+len(r.Value))
			}
		}
	}
}

// TestRandomWriterFilesFitTheirBound: with maxFileBytes the block size,
// as the Sort CLI passes it, every file is one block, so no map task has
// to join two blocks to read its split.
func TestRandomWriterFilesFitTheirBound(t *testing.T) {
	fs := testFS(t)
	paths, err := RandomWriter(fs, "/in", 400_000, fs.BlockSize(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("files = %d, want several", len(paths))
	}
	for _, p := range paths {
		info, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Blocks) != 1 || info.Size > fs.BlockSize() {
			t.Fatalf("%s: %d bytes in %d blocks, want one block of at most %d", p, info.Size, len(info.Blocks), fs.BlockSize())
		}
	}
}

func TestRandomWriterZeroBytes(t *testing.T) {
	fs := testFS(t)
	paths, err := RandomWriter(fs, "/in", 0, 1000, 1)
	if err != nil || len(paths) != 1 {
		t.Fatalf("paths=%v err=%v", paths, err)
	}
}

func TestRandomWriterNegative(t *testing.T) {
	fs := testFS(t)
	if _, err := RandomWriter(fs, "/in", -5, 1000, 1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestWordGen(t *testing.T) {
	fs := testFS(t)
	if err := WordGen(fs, "/w", []string{"x", "y"}, 3); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/w")
	if string(data) != "x\ny\nx\ny\nx\ny\n" {
		t.Fatalf("wordgen = %q", data)
	}
}
