package workload

import (
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
	sample, err := SampleKeys(fs, paths, mapred.TeraInput, 20)
	if err != nil {
		t.Fatal(err)
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

// TestChecksumGolden pins the digest values: they were recorded from the
// hash/fnv-based implementation (FNV-1a over key, a zero byte, value) and
// the hand-written loop must keep producing them, for a seeded TeraGen and
// for the empty-key / empty-value corners.
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
	if want := (Checksum{Count: 5000, Sum: 14454743632922896391, Bytes: 500000}); got != want {
		t.Fatalf("TeraGen(seed 42) checksum = %+v, want %+v", got, want)
	}
	var c Checksum
	c.add(kv.Record{})
	c.add(kv.Record{Key: []byte("a")})
	c.add(kv.Record{Value: []byte("a")})
	if want := (Checksum{Count: 3, Sum: 13849138796059287965, Bytes: 2}); c != want {
		t.Fatalf("corner-case checksum = %+v, want %+v", c, want)
	}
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
	if !IsValidationError(err) {
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
	if !IsValidationError(err) {
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
	if !IsValidationError(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsEmptyOutput(t *testing.T) {
	fs := testFS(t)
	if err := Validate(fs, "/nothing", kv.BytesComparator, Checksum{}, true); !IsValidationError(err) {
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
