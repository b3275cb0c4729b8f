package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mkRecs(pairs ...string) []Record {
	if len(pairs)%2 != 0 {
		panic("mkRecs needs key,value pairs")
	}
	var recs []Record
	for i := 0; i < len(pairs); i += 2 {
		recs = append(recs, Record{Key: []byte(pairs[i]), Value: []byte(pairs[i+1])})
	}
	return recs
}

func TestRecordClone(t *testing.T) {
	buf := []byte("keyvalue")
	r := Record{Key: buf[:3], Value: buf[3:]}
	c := r.Clone()
	buf[0] = 'X'
	if string(c.Key) != "key" || string(c.Value) != "value" {
		t.Fatalf("clone aliases source: %v", c)
	}
}

func TestEncodedLenMatchesAppend(t *testing.T) {
	f := func(k, v []byte) bool {
		r := Record{Key: k, Value: v}
		return r.EncodedLen() == len(AppendRecord(nil, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(k, v []byte) bool {
		r := Record{Key: k, Value: v}
		enc := AppendRecord(nil, r)
		got, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return bytes.Equal(got.Key, k) && bytes.Equal(got.Value, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAllRoundTrip(t *testing.T) {
	recs := mkRecs("a", "1", "b", "2", "", "", "dd", "long value here")
	enc := EncodeAll(recs)
	got, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Errorf("record %d: got %v want %v", i, got[i], recs[i])
		}
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                // empty
		{0xff},            // truncated uvarint
		{0x05, 0x01, 'a'}, // declared key longer than buffer
		{0x01, 0x05, 'a'}, // declared value longer than buffer
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00}, // absurd length
	}
	for i, c := range cases {
		if _, _, err := DecodeRecord(c); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
}

// decodeRecordVarint is DecodeRecord without its one-byte fast path, both
// lengths read by binary.Uvarint: the reference FuzzDecodeRecord holds
// DecodeRecord to.
func decodeRecordVarint(b []byte) (Record, int, error) {
	kl, n1 := binary.Uvarint(b)
	if n1 <= 0 || kl > MaxRecordLen {
		return Record{}, 0, ErrCorrupt
	}
	vl, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 || vl > MaxRecordLen {
		return Record{}, 0, ErrCorrupt
	}
	off := n1 + n2
	if uint64(len(b)-off) < kl+vl {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{Key: b[off : off+int(kl)], Value: b[off+int(kl) : off+int(kl)+int(vl)]}
	return r, off + int(kl) + int(vl), nil
}

// FuzzDecodeRecord: for any bytes, DecodeRecord returns what the varint
// reference returns — the same record, aliasing the same bytes of the
// input, the same length consumed and the same error.
func FuzzDecodeRecord(f *testing.F) {
	body := bytes.Repeat([]byte{'x'}, 200)
	f.Add([]byte{})
	f.Add(append([]byte{0x7f, 0x7f}, body...))       // the largest one-byte lengths
	f.Add(append([]byte{0x80, 0x01, 0x02}, body...)) // a 0x80 header byte: key of 128
	f.Add(append([]byte{0x02, 0x80, 0x01}, body...)) // ... and value of 128
	f.Add(append([]byte{0xff, 0x7f, 0x00}, body...)) // 0xff begins a two-byte length
	f.Add([]byte{0xff})                              // a length that never ends
	f.Add([]byte{0x00, 0x03, 'v', 'a', 'l'})         // an empty key
	f.Add([]byte{0x03, 0x00, 'k', 'e', 'y'})         // an empty value
	f.Add([]byte{0x05, 0x05, 'a', 'b', 'c'})         // a body cut short
	f.Add(binary.AppendUvarint(nil, MaxRecordLen+1)) // a key past MaxRecordLen
	f.Add(append([]byte{0x00}, binary.AppendUvarint(nil, MaxRecordLen+1)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, n, err := DecodeRecord(b)
		want, wn, werr := decodeRecordVarint(b)
		same := func(x, y []byte) bool { return bytes.Equal(x, y) && cap(x) == cap(y) && (x == nil) == (y == nil) }
		if n != wn || err != werr || !same(got.Key, want.Key) || !same(got.Value, want.Value) {
			t.Fatalf("DecodeRecord(%x) = %v, %d, %v; the varint reference gives %v, %d, %v", b, got, n, err, want, wn, werr)
		}
	})
}

func TestBufferIterator(t *testing.T) {
	recs := mkRecs("x", "1", "y", "2")
	it := NewBufferIterator(EncodeAll(recs))
	var got []Record
	for it.Next() {
		got = append(got, it.Record().Clone())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != 2 || string(got[1].Key) != "y" {
		t.Fatalf("unexpected records: %v", got)
	}
}

func TestBufferIteratorCorrupt(t *testing.T) {
	it := NewBufferIterator([]byte{0x05, 0x00, 'a'})
	if it.Next() {
		t.Fatal("Next succeeded on corrupt buffer")
	}
	if it.Err() == nil {
		t.Fatal("expected error")
	}
}

func TestRunWriterReader(t *testing.T) {
	recs := mkRecs("a", "1", "b", "2", "c", "3")
	run := WriteRun(recs)
	rr, err := NewRunReader(run)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count() != 3 {
		t.Fatalf("count = %d, want 3", rr.Count())
	}
	var got []Record
	for rr.Next() {
		got = append(got, rr.Record().Clone())
	}
	if rr.Err() != nil {
		t.Fatal(rr.Err())
	}
	if len(got) != 3 || string(got[2].Value) != "3" {
		t.Fatalf("unexpected: %v", got)
	}
	if rr.Remaining() != 0 {
		t.Fatalf("remaining = %d", rr.Remaining())
	}
}

func TestRunEmptyRun(t *testing.T) {
	run := WriteRun(nil)
	rr, err := NewRunReader(run)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count() != 0 || rr.Next() {
		t.Fatal("empty run yielded records")
	}
	if err := VerifyChecksum(run); err != nil {
		t.Fatal(err)
	}
}

func TestRunChecksumDetectsCorruption(t *testing.T) {
	run := WriteRun(mkRecs("key", "value"))
	if err := VerifyChecksum(run); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte (not in the trailer).
	run[6] ^= 0x40
	if err := VerifyChecksum(run); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestRunReaderRejectsBadMagic(t *testing.T) {
	run := WriteRun(mkRecs("k", "v"))
	run[0] = 'X'
	if _, err := NewRunReader(run); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRunReaderRejectsShortBuffer(t *testing.T) {
	if _, err := NewRunReader([]byte("RM")); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// TestRunWriterMatchesWriteRun holds the streaming writer to WriteRun's
// bytes across its block boundary: runs of small records several blocks
// long, records larger than a block (which grow the buffer), and an
// oversize record arriving while a block is part full.
func TestRunWriterMatchesWriteRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var small []Record
	for i := 0; i < 3000; i++ {
		small = append(small, Record{Key: big(10), Value: big(rng.Intn(150))})
	}
	for name, recs := range map[string][]Record{
		"empty":    nil,
		"small":    small,
		"oversize": {{Key: big(10), Value: big(200 << 10)}, {Key: big(70 << 10), Value: nil}},
		"mixed":    append(append(small[:40:40], Record{Key: big(3), Value: big(65 << 10)}), small[40:900]...),
		"exact":    {{Key: big(10), Value: big(64<<10 - 4 - 10 - 4)}, {Key: big(1), Value: big(1)}},
	} {
		var buf bytes.Buffer
		rw := NewRunWriter(&buf)
		for _, r := range recs {
			if err := rw.Write(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := WriteRun(recs)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: RunWriter wrote %d bytes that differ from WriteRun's %d", name, buf.Len(), len(want))
		}
		if rw.Count() != uint64(len(recs)) {
			t.Fatalf("%s: Count=%d, want %d", name, rw.Count(), len(recs))
		}
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct {
	n      int
	writes int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestRunWriterLatchesWriterError(t *testing.T) {
	w := &failAfter{n: 100 << 10}
	rw := NewRunWriter(w)
	rec := Record{Key: []byte("key"), Value: make([]byte, 1000)}
	var first error
	for i := 0; i < 1000 && first == nil; i++ {
		first = rw.Write(rec)
	}
	if first == nil {
		t.Fatal("1 MB written through a writer that fails after 100 KB")
	}
	writes := w.writes
	if err := rw.Write(rec); err != first {
		t.Fatalf("Write after the failure = %v, want the first error %v", err, first)
	}
	if err := rw.Close(); err != first {
		t.Fatalf("Close after the failure = %v, want the first error %v", err, first)
	}
	if w.writes != writes {
		t.Fatalf("the failed writer was written to %d more times", w.writes-writes)
	}
}

// TestRunWriterAllocsPerRun: a run costs the writer and its one buffer,
// however many records go through it.
func TestRunWriterAllocsPerRun(t *testing.T) {
	recs := teraShaped(rand.New(rand.NewSource(6)), 5000)
	var buf bytes.Buffer
	buf.Grow(600 << 10)
	allocs := testing.AllocsPerRun(10, func() {
		buf.Reset()
		rw := NewRunWriter(&buf)
		for _, r := range recs {
			_ = rw.Write(r)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations to write a 5000-record run, want 2", allocs)
	}
}

func TestRunWriterWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Write(Record{Key: []byte("a")}); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestRunRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		recs := make([]Record, len(keys))
		for i, k := range keys {
			recs[i] = Record{Key: k, Value: []byte{byte(i)}}
		}
		run := WriteRun(recs)
		if VerifyChecksum(run) != nil {
			return false
		}
		rr, err := NewRunReader(run)
		if err != nil {
			return false
		}
		i := 0
		for rr.Next() {
			if !bytes.Equal(rr.Record().Key, keys[i]) {
				return false
			}
			i++
		}
		return rr.Err() == nil && i == len(keys)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionerRangeAndStability(t *testing.T) {
	p := HashPartitioner{}
	for i := 0; i < 1000; i++ {
		key := []byte{byte(i), byte(i >> 8)}
		got := p.Partition(key, 7)
		if got < 0 || got >= 7 {
			t.Fatalf("partition %d out of range", got)
		}
		if got != p.Partition(key, 7) {
			t.Fatal("partitioner not stable")
		}
	}
}

func TestHashPartitionerDistribution(t *testing.T) {
	p := HashPartitioner{}
	const n, parts = 10000, 8
	counts := make([]int, parts)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		key := make([]byte, 10)
		rng.Read(key)
		counts[p.Partition(key, parts)]++
	}
	for i, c := range counts {
		if c < n/parts/2 || c > n/parts*2 {
			t.Errorf("partition %d badly skewed: %d of %d", i, c, n)
		}
	}
}

func TestIsByteOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		cmp  Comparator
		want bool
	}{
		{"nil", nil, true},
		{"BytesComparator", BytesComparator, true},
		{"closure around it", func(a, b []byte) int { return BytesComparator(a, b) }, false},
		{"bytes.Compare", bytes.Compare, false},
		{"reversing", reverseComparator, false},
	} {
		if got := IsByteOrder(c.cmp); got != c.want {
			t.Errorf("IsByteOrder(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// searchPartition is TotalOrderPartitioner.Partition as it was before it
// searched split prefixes: sort.Search with a full comparison per probe.
func searchPartition(splits [][]byte, key []byte, n int) int {
	i := sort.Search(len(splits), func(i int) bool {
		return BytesComparator(key, splits[i]) < 0
	})
	if i >= n {
		i = n - 1
	}
	return i
}

// TestTotalOrderPartitionerMatchesFullSearch: the prefix search must
// route every key exactly as the full-key search does, including keys
// and split points shorter than the prefix, equal to one another, or
// alike for more than eight bytes.
func TestTotalOrderPartitionerMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	randKey := func() []byte {
		key := make([]byte, rng.Intn(13))
		for i := range key {
			key[i] = "\x00ab\xff"[rng.Intn(4)]
		}
		return key
	}
	for round := 0; round < 200; round++ {
		sample := make([][]byte, 1+rng.Intn(60))
		for i := range sample {
			sample[i] = randKey()
		}
		n := 1 + rng.Intn(20)
		splits := SampleSplits(sample, n)
		p, err := NewTotalOrderPartitioner(splits)
		if err != nil {
			t.Fatal(err)
		}
		n = len(splits) + 1
		keys := append([][]byte{nil}, splits...)
		for i := 0; i < 200; i++ {
			keys = append(keys, randKey())
		}
		for _, key := range keys {
			if got, want := p.Partition(key, n), searchPartition(splits, key, n); got != want {
				t.Fatalf("Partition(%q) over %q = %d, full search says %d", key, splits, got, want)
			}
		}
	}
	tera := teraShaped(rng, 4000)
	sample := make([][]byte, 0, 400)
	for _, r := range tera[:400] {
		sample = append(sample, r.Key)
	}
	splits := SampleSplits(sample, 8)
	p, _ := NewTotalOrderPartitioner(splits)
	for _, r := range tera {
		if got, want := p.Partition(r.Key, 8), searchPartition(splits, r.Key, 8); got != want {
			t.Fatalf("Partition(%x) = %d, full search says %d", r.Key, got, want)
		}
	}
}

// cutKeys cuts fuzz input into keys: a length byte (mod 13), then that
// many raw bytes, so keys fall on both sides of the 8-byte prefix and
// may be empty.
func cutKeys(data []byte) [][]byte {
	var keys [][]byte
	for len(data) > 0 {
		l := min(int(data[0]%13), len(data)-1)
		keys = append(keys, data[1:1+l])
		data = data[1+l:]
	}
	return keys
}

// encodeKeys is cutKeys' inverse, for building seeds.
func encodeKeys(keys ...[]byte) []byte {
	var data []byte
	for _, k := range keys {
		data = append(append(data, byte(len(k))), k...)
	}
	return data
}

// FuzzTotalOrderPartitioner: splits sampled from one input, keys cut from
// the other, and every key, every split, and each split lengthened by a
// zero byte or shortened by one byte must be routed as the full-key
// search routes it.
func FuzzTotalOrderPartitioner(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(1))
	// 300 partitions over a sample that spans every first byte: more
	// splits than the table has entries, one or two on each byte; every
	// 1-byte key.
	var wide, ones [][]byte
	for i := 0; i < 900; i++ {
		wide = append(wide, []byte{byte(i * 7), byte(i), byte(i >> 8), 'w'})
	}
	for c := 0; c < 256; c++ {
		ones = append(ones, []byte{byte(c)})
	}
	f.Add(encodeKeys(wide...), encodeKeys(ones...), uint16(300))
	// Splits sharing a first byte, an empty split, and keys equal to a
	// split or alike with one for eight bytes and more.
	shared := [][]byte{{}, {}, []byte("a"), []byte("a\x00"), []byte("ab"), []byte("abcdefgh"),
		[]byte("abcdefghij"), []byte("abcdefghik"), []byte("abd"), []byte("b"), []byte("\xff\xff")}
	f.Add(encodeKeys(shared...), encodeKeys([]byte{}, []byte("a"), []byte("abcdefgh\x00"),
		[]byte("abcdefghi"), []byte("abcdefghij"), []byte("abcdefghiz"), []byte("abc"), []byte("\xff")), uint16(8))
	f.Fuzz(func(t *testing.T, sample, keys []byte, parts uint16) {
		splits := SampleSplits(cutKeys(sample), 1+int(parts%400))
		p, err := NewTotalOrderPartitioner(splits)
		if err != nil {
			t.Fatal(err)
		}
		n := len(splits) + 1
		probe := append([][]byte{nil}, cutKeys(keys)...)
		for _, s := range splits {
			probe = append(probe, s, append(slices.Clone(s), 0))
			if len(s) > 0 {
				probe = append(probe, s[:len(s)-1])
			}
		}
		for _, key := range probe {
			if got, want := p.Partition(key, n), searchPartition(splits, key, n); got != want {
				t.Fatalf("Partition(%q) over %d splits = %d, full search says %d", key, len(splits), got, want)
			}
		}
	})
}

func TestTotalOrderPartitioner(t *testing.T) {
	splits := [][]byte{[]byte("g"), []byte("p")}
	p, err := NewTotalOrderPartitioner(splits)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{"a": 0, "f": 0, "g": 1, "m": 1, "p": 2, "z": 2}
	for k, want := range cases {
		if got := p.Partition([]byte(k), 3); got != want {
			t.Errorf("Partition(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestTotalOrderPartitionerRejectsUnsorted(t *testing.T) {
	if _, err := NewTotalOrderPartitioner([][]byte{[]byte("p"), []byte("g")}); err == nil {
		t.Fatal("unsorted splits accepted")
	}
}

func TestTotalOrderPartitionerPreservesGlobalOrder(t *testing.T) {
	// Property: if key a is assigned to a lower partition than key b, then
	// a < b. This is what makes concatenated reduce outputs globally sorted.
	splits := SampleSplits([][]byte{[]byte("d"), []byte("k"), []byte("r"), []byte("w")}, 4)
	p, err := NewTotalOrderPartitioner(splits)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b []byte) bool {
		pa, pb := p.Partition(a, 4), p.Partition(b, 4)
		if pa < pb {
			return BytesComparator(a, b) < 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSplits(t *testing.T) {
	sample := [][]byte{[]byte("m"), []byte("a"), []byte("z"), []byte("f"), []byte("q")}
	splits := SampleSplits(sample, 3)
	if len(splits) != 2 {
		t.Fatalf("got %d splits, want 2", len(splits))
	}
	if BytesComparator(splits[0], splits[1]) > 0 {
		t.Fatal("splits not sorted")
	}
}

func TestSampleSplitsDegenerate(t *testing.T) {
	if s := SampleSplits(nil, 4); s != nil {
		t.Fatal("expected nil splits for empty sample")
	}
	if s := SampleSplits([][]byte{[]byte("x")}, 1); s != nil {
		t.Fatal("expected nil splits for single partition")
	}
}

func TestSortRecordsStable(t *testing.T) {
	recs := mkRecs("b", "1", "a", "2", "b", "3", "a", "4")
	SortRecords(recs, BytesComparator)
	want := []string{"2", "4", "1", "3"}
	for i, w := range want {
		if string(recs[i].Value) != w {
			t.Fatalf("position %d: got %s, want %s (stability violated)", i, recs[i].Value, w)
		}
	}
}

func TestPartitionAndSort(t *testing.T) {
	recs := mkRecs("d", "1", "a", "2", "c", "3", "b", "4")
	parts := PartitionAndSort(recs, HashPartitioner{}, 3, BytesComparator)
	total := 0
	for _, p := range parts {
		total += len(p)
		for i := 1; i < len(p); i++ {
			if BytesComparator(p[i-1].Key, p[i].Key) > 0 {
				t.Fatal("partition not sorted")
			}
		}
	}
	if total != 4 {
		t.Fatalf("records lost: %d of 4", total)
	}
}

func TestSliceIterator(t *testing.T) {
	it := NewSliceIterator(mkRecs("a", "1", "b", "2"))
	n := 0
	for it.Next() {
		n++
	}
	if n != 2 || it.Err() != nil {
		t.Fatalf("n=%d err=%v", n, it.Err())
	}
	if it.Next() {
		t.Fatal("Next after exhaustion")
	}
}

func TestIsSorted(t *testing.T) {
	ok, err := IsSorted(NewSliceIterator(mkRecs("a", "", "b", "", "b", "")), BytesComparator)
	if err != nil || !ok {
		t.Fatalf("sorted input reported unsorted (err=%v)", err)
	}
	ok, err = IsSorted(NewSliceIterator(mkRecs("b", "", "a", "")), BytesComparator)
	if err != nil || ok {
		t.Fatalf("unsorted input reported sorted (err=%v)", err)
	}
}

func TestDrain(t *testing.T) {
	recs, err := Drain(NewSliceIterator(mkRecs("a", "1")))
	if err != nil || len(recs) != 1 {
		t.Fatalf("drain: %v %v", recs, err)
	}
}

func TestRunBody(t *testing.T) {
	recs := mkRecs("a", "1", "bb", "22")
	run := WriteRun(recs)
	body, count, err := RunBody(run)
	if err != nil || count != 2 {
		t.Fatalf("RunBody: count=%d err=%v", count, err)
	}
	got, err := DecodeAll(body)
	if err != nil || len(got) != 2 || string(got[1].Key) != "bb" {
		t.Fatalf("body decode: %v %v", got, err)
	}
	if _, _, err := RunBody([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestRunBodySpan(t *testing.T) {
	recs := mkRecs("a", "1", "bb", "22")
	run := WriteRun(recs)
	start, end, count, err := RunBodySpan(run)
	if err != nil || count != 2 {
		t.Fatalf("RunBodySpan: count=%d err=%v", count, err)
	}
	body, _, err := RunBody(run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(run[start:end], body) {
		t.Fatalf("span [%d:%d] does not frame the body", start, end)
	}
	if _, _, _, err := RunBodySpan([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestNextRecordSize(t *testing.T) {
	recs := mkRecs("key", "value")
	body := EncodeAll(recs)
	n, err := NextRecordSize(body)
	if err != nil || n != recs[0].EncodedLen() {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := NextRecordSize([]byte{0xff}); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

// NewBufferIterator returns an iterator over the records encoded in buf.
func NewBufferIterator(buf []byte) *BufferIterator { return &BufferIterator{buf: buf} }

// Count returns the number of records written so far.
func (rw *RunWriter) Count() uint64 { return rw.count }

// Count returns the total number of records in the run.
func (rr *RunReader) Count() uint64 { return rr.count }

// Remaining returns how many records have not yet been consumed.
func (rr *RunReader) Remaining() uint64 { return rr.count - rr.read }

// IsSorted reports whether it yields records in non-decreasing key order
// under cmp, consuming the iterator.
func IsSorted(it Iterator, cmp Comparator) (bool, error) {
	var prev []byte
	first := true
	for it.Next() {
		k := it.Record().Key
		if !first && cmp(prev, k) > 0 {
			return false, nil
		}
		prev = append(prev[:0], k...)
		first = false
	}
	return true, it.Err()
}
