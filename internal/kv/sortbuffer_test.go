package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// referenceRuns is the map-side collect path SortBuffer replaced, kept as
// the oracle: regroup the records per partition, stable-sort each group
// with sort.SliceStable, and encode it through a RunWriter.
func referenceRuns(recs []Record, part Partitioner, n int, cmp Comparator) [][]byte {
	groups := make([][]Record, n)
	for _, r := range recs {
		p := part.Partition(r.Key, n)
		groups[p] = append(groups[p], r)
	}
	runs := make([][]byte, n)
	for p, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return cmp(g[i].Key, g[j].Key) < 0 })
		var buf bytes.Buffer
		rw := NewRunWriter(&buf)
		rw.CheckOrder(cmp)
		for _, r := range g {
			if err := rw.Write(r); err != nil {
				panic(err)
			}
		}
		if err := rw.Close(); err != nil {
			panic(err)
		}
		runs[p] = buf.Bytes()
	}
	return runs
}

// sortBufferRuns returns SortBuffer's run of every partition, after
// requiring that RunInto encodes each one byte for byte as Run does.
func sortBufferRuns(t *testing.T, recs []Record, part Partitioner, n int, cmp Comparator) [][]byte {
	t.Helper()
	b := NewSortBuffer(part, n, cmp, 0)
	for _, r := range recs {
		b.Add(r.Key, r.Value)
	}
	b.Sort()
	runs := make([][]byte, n)
	for p := range runs {
		runs[p] = b.Run(p)
		into := make([]byte, b.RunLen(p))
		b.RunInto(p, into)
		if !bytes.Equal(into, runs[p]) {
			t.Fatalf("partition %d of %d: RunInto differs from Run (%d vs %d bytes)", p, n, len(into), len(runs[p]))
		}
	}
	return runs
}

func reverseComparator(a, b []byte) int { return bytes.Compare(b, a) }

// checkAgainstReference requires byte-identical runs per partition from
// SortBuffer and the reference, under both partitioners, for the prefix
// fast path (nil comparator), the same order given explicitly, and a
// custom order the prefix would get wrong.
func checkAgainstReference(t *testing.T, recs []Record, n int) {
	t.Helper()
	keys := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	total, err := NewTotalOrderPartitioner(SampleSplits(keys, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		part Partitioner
	}{{"hash", HashPartitioner{}}, {"total-order", total}} {
		for _, cc := range []struct {
			name string
			cmp  Comparator // handed to SortBuffer
			ref  Comparator // the order it must produce
		}{
			{"prefix", nil, BytesComparator},
			{"bytes", BytesComparator, BytesComparator},
			{"reverse", reverseComparator, reverseComparator},
		} {
			want := referenceRuns(recs, pc.part, n, cc.ref)
			got := sortBufferRuns(t, recs, pc.part, n, cc.cmp)
			for p := range want {
				if !bytes.Equal(got[p], want[p]) {
					t.Fatalf("%s/%s: partition %d of %d differs from the reference (%d vs %d bytes, %d records in)",
						pc.name, cc.name, p, n, len(got[p]), len(want[p]), len(recs))
				}
				if err := VerifyChecksum(got[p]); err != nil {
					t.Fatalf("%s/%s: partition %d: %v", pc.name, cc.name, p, err)
				}
			}
		}
	}
}

// fuzzRecords turns fuzz input into records biased toward the cases the
// index sort can get wrong: keys drawn from a small alphabet so
// duplicates and shared prefixes are common, lengths on both sides of the
// 8-byte prefix, zero bytes, empty keys and values, and an occasional
// RandomWriter-sized 20 KB value.
func fuzzRecords(data []byte) []Record {
	var recs []Record
	for len(data) >= 2 {
		klen, vlen := int(data[0]%12), int(data[1]%7)
		big := data[1] == 0xff
		data = data[2:]
		klen = min(klen, len(data))
		key := make([]byte, klen)
		for i, c := range data[:klen] {
			key[i] = "\x00ab"[c%3]
		}
		data = data[klen:]
		vlen = min(vlen, len(data))
		value := append([]byte(nil), data[:vlen]...)
		data = data[vlen:]
		if big {
			value = bytes.Repeat([]byte{byte(len(recs))}, 20<<10)
		}
		recs = append(recs, Record{Key: key, Value: value})
	}
	return recs
}

func FuzzSortBuffer(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	// "a" and "a\x00": one prefix, two keys.
	f.Add([]byte{1, 1, 1, '1', 2, 1, 1, 0, '2', 1, 1, 1, '3'}, uint8(2))
	// Duplicate keys whose values record emission order.
	f.Add([]byte{3, 1, 1, 2, 1, 'x', 3, 1, 1, 2, 1, 'y', 3, 1, 1, 2, 1, 'z', 0, 0, 0, 1, 'e'}, uint8(3))
	// Keys past the prefix that differ only in byte 9, and a 20 KB value.
	f.Add([]byte{10, 0xff, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 10, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 'v'}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		checkAgainstReference(t, fuzzRecords(data), 1+int(parts%8))
	})
}

// TestSortBufferMatchesReference runs the same property over seeded
// random inputs on every `go test`, including TeraSort-shaped records
// and RandomWriter-shaped ones.
func TestSortBufferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		checkAgainstReference(t, fuzzRecords(data), 1+rng.Intn(8))
	}
	checkAgainstReference(t, teraShaped(rng, 3000), 8)

	var wide []Record
	for i := 0; i < 60; i++ {
		key := make([]byte, 10+rng.Intn(990))
		value := make([]byte, rng.Intn(19001))
		rng.Read(key)
		rng.Read(value)
		wide = append(wide, Record{Key: key, Value: value})
	}
	checkAgainstReference(t, wide, 5)
}

// teraShaped returns n records with TeraSort's geometry: random 10-byte
// keys, 90-byte values.
func teraShaped(rng *rand.Rand, n int) []Record {
	buf := make([]byte, n*100)
	rng.Read(buf)
	recs := make([]Record, n)
	for i := range recs {
		rec := buf[i*100 : (i+1)*100]
		recs[i] = Record{Key: rec[:10], Value: rec[10:]}
	}
	return recs
}

// TestSortBufferRadixCorners aims the same oracle at what a radix sort of
// prefixes can get wrong: most records sharing their first eight bytes
// (every digit pass skipped or nearly so, long stretches left to the
// comparator), prefixes that differ in one digit only, and more
// partitions than a digit has values.
func TestSortBufferRadixCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var shared []Record
	for i := 0; i < 2000; i++ {
		key := []byte("prefix--")
		switch rng.Intn(4) {
		case 0: // the bare prefix, many times over
		case 1:
			key = append(key, byte(rng.Intn(3)), byte(rng.Intn(3)))
		case 2:
			key = append(key, make([]byte, rng.Intn(4))...) // "…", "…\x00", "…\x00\x00"
		case 3:
			key = []byte("prefix-!tail")[:8+rng.Intn(5)]
		}
		shared = append(shared, Record{Key: key, Value: []byte{byte(i), byte(i >> 8)}})
	}
	checkAgainstReference(t, shared, 3)

	var oneDigit []Record
	for i := 0; i < 3000; i++ {
		key := []byte("abcdefghij")
		key[rng.Intn(3)*3] = byte(rng.Intn(256)) // digit 7, 4 or 1 of the prefix
		oneDigit = append(oneDigit, Record{Key: key, Value: []byte{byte(i), byte(i >> 8)}})
	}
	checkAgainstReference(t, oneDigit, 7)

	checkAgainstReference(t, teraShaped(rng, 5000), 300)
	checkAgainstReference(t, shared, 70)
}

func TestSortBufferPrefixTieIsNotKeyEquality(t *testing.T) {
	// All of these share the zero-padded prefix of "a"; only the keys
	// themselves order them, and the two "a"s must keep emission order.
	recs := mkRecs("a\x00\x00", "1", "a", "2", "a\x00", "3", "a", "4", "", "5")
	b := NewSortBuffer(HashPartitioner{}, 1, nil, 0)
	for _, r := range recs {
		b.Add(r.Key, r.Value)
	}
	b.Sort()
	var got string
	for _, r := range b.Records(0, nil) {
		got += string(r.Value)
	}
	if got != "52431" {
		t.Fatalf("order by value = %q, want 52431", got)
	}
}

func TestSortBufferResetReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first, second := teraShaped(rng, 500), teraShaped(rng, 300)
	b := NewSortBuffer(HashPartitioner{}, 4, nil, 0)
	for _, r := range first {
		b.Add(r.Key, r.Value)
	}
	b.Sort()
	b.Reset(HashPartitioner{}, 4, nil, 0)
	if b.Len() != 0 || b.EncodedBytes() != 0 {
		t.Fatalf("after Reset: Len=%d EncodedBytes=%d", b.Len(), b.EncodedBytes())
	}
	for _, r := range second {
		b.Add(r.Key, r.Value)
	}
	if want := int64(len(second) * 102); b.EncodedBytes() != want {
		t.Fatalf("EncodedBytes = %d, want %d", b.EncodedBytes(), want)
	}
	b.Sort()
	want := referenceRuns(second, HashPartitioner{}, 4, BytesComparator)
	for p := range want {
		if !bytes.Equal(b.Run(p), want[p]) {
			t.Fatalf("partition %d after Reset differs from the reference", p)
		}
	}

	// The next task on the slot is another job's: more partitions than
	// the buffer has seen, another partitioner, another order — and then
	// fewer partitions again, back in byte order.
	keys := make([][]byte, len(first))
	for i, r := range first {
		keys[i] = r.Key
	}
	total, err := NewTotalOrderPartitioner(SampleSplits(keys, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, fill := range []struct {
		recs []Record
		part Partitioner
		n    int
		cmp  Comparator
	}{
		{first, total, 9, reverseComparator},
		{second, HashPartitioner{}, 2, BytesComparator},
	} {
		b.Reset(fill.part, fill.n, fill.cmp, 0)
		for _, r := range fill.recs {
			b.Add(r.Key, r.Value)
		}
		b.Sort()
		want := referenceRuns(fill.recs, fill.part, fill.n, fill.cmp)
		for p := range want {
			if !bytes.Equal(b.Run(p), want[p]) {
				t.Fatalf("reused for %d partitions: partition %d differs from the reference", fill.n, p)
			}
		}
	}
}

// TestSortBufferAllocBudget fails if a per-record allocation comes back
// to the collect → sort → encode path: 10 000 TeraSort records into 8
// partitions may cost the arena, the index, the per-partition
// bookkeeping and one buffer per run — O(partitions), not O(records).
func TestSortBufferAllocBudget(t *testing.T) {
	const n, parts = 10000, 8
	recs := teraShaped(rand.New(rand.NewSource(1)), n)
	keys := make([][]byte, n)
	for i, r := range recs {
		keys[i] = r.Key
	}
	total, err := NewTotalOrderPartitioner(SampleSplits(keys, parts))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		part Partitioner
	}{{"total-order", total}, {"hash", HashPartitioner{}}} {
		var out [parts][]byte
		allocs := testing.AllocsPerRun(5, func() {
			b := NewSortBuffer(pc.part, parts, nil, n*100)
			for _, r := range recs {
				b.Add(r.Key, r.Value)
			}
			b.Sort()
			for p := range out {
				out[p] = b.Run(p)
			}
		})
		if allocs > 32 {
			t.Errorf("%s: %.0f allocations for %d records into %d partitions, budget 32", pc.name, allocs, n, parts)
		}
		t.Logf("%s: %.0f allocations", pc.name, allocs)

		// A buffer that has been filled once is reused whole: the next
		// task on the slot allocates its runs and nothing else.
		b := NewSortBuffer(pc.part, parts, nil, n*100)
		refill := func() {
			b.Reset(pc.part, parts, nil, n*100)
			for _, r := range recs {
				b.Add(r.Key, r.Value)
			}
			b.Sort()
			for p := range out {
				out[p] = b.Run(p)
			}
		}
		refill()
		if allocs := testing.AllocsPerRun(5, refill); allocs != parts {
			t.Errorf("%s: refilling a used buffer made %.0f allocations, want %d (one per run)", pc.name, allocs, parts)
		}
	}
}

// TestSortBufferRunIntoZeroAllocs: encoding a run into a buffer the caller
// already has — a registered slab block, on the RDMA engine — allocates
// nothing, so the map output's one copy is the encode itself.
func TestSortBufferRunIntoZeroAllocs(t *testing.T) {
	const parts = 4
	b := NewSortBuffer(HashPartitioner{}, parts, nil, 0)
	for _, r := range teraShaped(rand.New(rand.NewSource(5)), 2000) {
		b.Add(r.Key, r.Value)
	}
	b.Sort()
	dst := make([][]byte, parts)
	for p := range dst {
		dst[p] = make([]byte, b.RunLen(p))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for p := range dst {
			b.RunInto(p, dst[p])
		}
	})
	if allocs != 0 {
		t.Fatalf("RunInto into a caller buffer allocated %.0f times, want 0", allocs)
	}
	for p := range dst {
		if err := VerifyChecksum(dst[p]); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
}

func TestWriteRunExactlySized(t *testing.T) {
	recs := teraShaped(rand.New(rand.NewSource(2)), 100)
	run := WriteRun(recs)
	if len(run) != cap(run) {
		t.Fatalf("WriteRun len %d cap %d: not exactly sized", len(run), cap(run))
	}
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	for _, r := range recs {
		if err := rw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(run, buf.Bytes()) {
		t.Fatal("WriteRun and RunWriter disagree on the encoding")
	}
	if allocs := testing.AllocsPerRun(10, func() { run = WriteRun(recs) }); allocs != 1 {
		t.Fatalf("WriteRun made %.0f allocations, want 1", allocs)
	}
}

func TestPartitionAndSortStable(t *testing.T) {
	recs := mkRecs("b", "1", "a", "2", "b", "3", "a", "4")
	parts := PartitionAndSort(recs, HashPartitioner{}, 1, BytesComparator)
	var got string
	for _, r := range parts[0] {
		got += fmt.Sprintf("%s%s ", r.Key, r.Value)
	}
	if got != "a2 a4 b1 b3 " {
		t.Fatalf("PartitionAndSort = %q, want equal keys in input order", got)
	}
}
