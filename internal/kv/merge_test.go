package kv

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedRecs(keys ...string) []Record {
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{Key: []byte(k), Value: []byte(k)}
	}
	SortRecords(recs, BytesComparator)
	return recs
}

func TestMergerBasic(t *testing.T) {
	a := NewSliceIterator(sortedRecs("a", "c", "e"))
	b := NewSliceIterator(sortedRecs("b", "d", "f"))
	m := NewMerger(BytesComparator, a, b)
	var got []string
	for m.Next() {
		got = append(got, string(m.Record().Key))
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestMergerResetReusesSlices: a merger Reset over new sources merges them
// as a new one would, under the new comparator, without allocating when
// its slices already fit; Reset(nil) leaves no source or record behind.
func TestMergerResetReusesSlices(t *testing.T) {
	m := NewMerger(BytesComparator, NewSliceIterator(sortedRecs("b", "d")), NewSliceIterator(sortedRecs("a", "c")))
	for m.Next() {
	}
	var keys [8]byte
	merged := func(want string) bool {
		got := keys[:0]
		for m.Next() {
			got = append(got, m.Record().Key...)
		}
		return string(got) == want
	}
	a, b := NewSliceIterator(sortedRecs("e", "g")), NewSliceIterator(sortedRecs("f"))
	if allocs := testing.AllocsPerRun(10, func() {
		a.idx, b.idx = -1, -1
		m.Reset(BytesComparator, a, b)
		if !merged("efg") {
			t.Fatal("a merger Reset over new sources did not merge them")
		}
	}); allocs != 0 {
		t.Fatalf("Reset and a merge over two sources allocated %.0f times, want 0", allocs)
	}
	reverse := func(x, y []byte) int { return bytes.Compare(y, x) }
	m.Reset(reverse, NewSliceIterator([]Record{{Key: []byte("z")}, {Key: []byte("x")}}), NewSliceIterator([]Record{{Key: []byte("y")}}))
	if !merged("zyx") {
		t.Fatal("a merger Reset under a new comparator did not merge under it")
	}
	m.Reset(nil)
	for _, s := range m.srcs[:cap(m.srcs)] {
		if s.it != nil || s.rec.Key != nil {
			t.Fatal("Reset(nil) kept a source or its record")
		}
	}
	if m.Next() || m.Record().Key != nil {
		t.Fatal("a merger Reset over nothing yielded a record")
	}
}

func TestMergerEmptySources(t *testing.T) {
	m := NewMerger(BytesComparator)
	if m.Next() {
		t.Fatal("merger over nothing yielded a record")
	}
	m = NewMerger(BytesComparator, NewSliceIterator(nil), NewSliceIterator(nil))
	if m.Next() {
		t.Fatal("merger over empty sources yielded a record")
	}
}

func TestMergerSingleSource(t *testing.T) {
	m := NewMerger(BytesComparator, NewSliceIterator(sortedRecs("x", "y")))
	n := 0
	for m.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestMergerDuplicateKeys(t *testing.T) {
	a := NewSliceIterator(sortedRecs("k", "k"))
	b := NewSliceIterator(sortedRecs("k"))
	m := NewMerger(BytesComparator, a, b)
	n := 0
	for m.Next() {
		if string(m.Record().Key) != "k" {
			t.Fatalf("unexpected key %q", m.Record().Key)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

type failingIterator struct{ calls int }

func (f *failingIterator) Next() bool {
	f.calls++
	return false
}
func (f *failingIterator) Record() Record { return Record{} }
func (f *failingIterator) Err() error     { return errors.New("source failed") }

func TestMergerPropagatesSourceError(t *testing.T) {
	m := NewMerger(BytesComparator, &failingIterator{}, NewSliceIterator(sortedRecs("a")))
	for m.Next() {
	}
	if m.Err() == nil {
		t.Fatal("source error swallowed")
	}
}

// TestMergerProperty checks the merge invariant: merging K sorted random
// runs yields exactly the multiset of inputs, in sorted order.
func TestMergerProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		var all []string
		its := make([]Iterator, k)
		for i := 0; i < k; i++ {
			n := rng.Intn(20)
			keys := make([]string, n)
			for j := range keys {
				keys[j] = string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
			}
			all = append(all, keys...)
			its[i] = NewSliceIterator(sortedRecs(keys...))
		}
		m := NewMerger(BytesComparator, its...)
		var got []string
		for m.Next() {
			got = append(got, string(m.Record().Key))
		}
		if m.Err() != nil {
			return false
		}
		sort.Strings(all)
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRuns(t *testing.T) {
	r1 := WriteRun(sortedRecs("a", "c"))
	r2 := WriteRun(sortedRecs("b", "d"))
	merged, err := MergeRuns(BytesComparator, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRunReader(merged)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count() != 4 {
		t.Fatalf("count = %d, want 4", rr.Count())
	}
	ok, err := IsSorted(rr, BytesComparator)
	if err != nil || !ok {
		t.Fatalf("merged run not sorted (err=%v)", err)
	}
	if err := VerifyChecksum(merged); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRunsRejectsCorruptInput(t *testing.T) {
	good := WriteRun(sortedRecs("a"))
	if _, err := MergeRuns(BytesComparator, good, []byte("garbage")); err == nil {
		t.Fatal("corrupt run accepted")
	}
}

func TestMergerRecordAliasing(t *testing.T) {
	// Records returned by the merger alias source buffers; verify the
	// documented contract that Clone survives Next.
	run := WriteRun(sortedRecs("a", "b"))
	rr, err := NewRunReader(run)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(BytesComparator, rr)
	if !m.Next() {
		t.Fatal("no first record")
	}
	first := m.Record().Clone()
	m.Next()
	if !bytes.Equal(first.Key, []byte("a")) {
		t.Fatal("cloned record mutated by Next")
	}
}

// cutIterator yields the first cut of its records and then fails, as a
// source whose stream breaks mid-way does.
type cutIterator struct {
	SliceIterator
	cut int
	err error
}

func (it *cutIterator) Next() bool { return it.idx+1 < it.cut && it.SliceIterator.Next() }
func (it *cutIterator) Err() error {
	if it.idx+1 >= it.cut {
		return it.err
	}
	return nil
}

// fuzzSources deals fuzzRecords' records — small alphabet, so keys repeat
// within and across sources, with empty keys, keys on both sides of the
// 8-byte prefix, "a" next to "a\x00", long shared prefixes and 20 KB
// values — out to k sources, tags each value with (source, position) so
// that no two records are interchangeable, and sorts each source stably
// under cmp. With few records some sources stay empty.
func fuzzSources(data []byte, k int, cmp Comparator) [][]Record {
	sources := make([][]Record, k)
	for i, r := range fuzzRecords(data) {
		s := (i*5 + len(r.Key) + len(r.Value)) % k
		r.Value = append([]byte{byte(s), byte(i), byte(i >> 8)}, r.Value...)
		sources[s] = append(sources[s], r)
	}
	for _, recs := range sources {
		SortRecords(recs, cmp)
	}
	return sources
}

// checkMergerAgainstReference requires the merged record sequence — equal
// keys included — to be what a stable sort of the sources concatenated in
// source order gives, for the default order passed as nil and by name,
// and for a custom order. With failAt >= 0 one source breaks half-way:
// the merge must then stop with that source's error, having emitted a
// prefix of the same sequence.
func checkMergerAgainstReference(t *testing.T, data []byte, k int, failAt int) {
	t.Helper()
	for _, cc := range []struct {
		name string
		cmp  Comparator // handed to NewMerger
		ref  Comparator // the order it must produce
	}{
		{"nil", nil, BytesComparator},
		{"bytes", BytesComparator, BytesComparator},
		{"reverse", reverseComparator, reverseComparator},
	} {
		sources := fuzzSources(data, k, cc.ref)
		var want []Record
		its := make([]Iterator, k)
		for s, recs := range sources {
			want = append(want, recs...)
			its[s] = NewSliceIterator(recs)
		}
		sort.SliceStable(want, func(i, j int) bool { return cc.ref(want[i].Key, want[j].Key) < 0 })

		var failed error
		if failAt >= 0 {
			failed = errors.New("source failed")
			recs := sources[failAt%k]
			its[failAt%k] = &cutIterator{SliceIterator: *NewSliceIterator(recs), cut: len(recs) / 2, err: failed}
		}
		m := NewMerger(cc.cmp, its...)
		n := 0
		for m.Next() {
			got := m.Record()
			if n >= len(want) {
				t.Fatalf("%s: merger yielded more than the %d records put in", cc.name, len(want))
			}
			if !bytes.Equal(got.Key, want[n].Key) || !bytes.Equal(got.Value, want[n].Value) {
				t.Fatalf("%s: record %d of %d is %q=%x, want %q=%x (k=%d)",
					cc.name, n, len(want), got.Key, got.Value[:3], want[n].Key, want[n].Value[:3], k)
			}
			n++
		}
		if m.Err() != failed {
			t.Fatalf("%s: Err = %v, want %v", cc.name, m.Err(), failed)
		}
		if m.Next() {
			t.Fatalf("%s: Next true after the end", cc.name)
		}
		if failed == nil && n != len(want) {
			t.Fatalf("%s: merged %d records, want %d", cc.name, n, len(want))
		}
	}
}

func FuzzMerger(f *testing.F) {
	f.Add([]byte{}, uint8(3), int8(-1))
	// "a" and "a\x00" — one prefix, two keys — and an empty key.
	f.Add([]byte{1, 1, 1, '1', 2, 1, 1, 0, '2', 1, 1, 1, '3', 0, 1, '4'}, uint8(2), int8(-1))
	// One key many times over, spread across the sources.
	f.Add([]byte{3, 1, 1, 2, 1, 'x', 3, 1, 1, 2, 1, 'y', 3, 1, 1, 2, 1, 'z', 3, 1, 1, 2, 1, 'w', 3, 1, 1, 2, 1, 'v'}, uint8(4), int8(-1))
	// Keys past the prefix that differ only in byte 9, and a 20 KB value.
	f.Add([]byte{10, 0xff, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 10, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 'v'}, uint8(1), int8(-1))
	// A source failing mid-stream.
	f.Add([]byte{3, 1, 1, 2, 1, 'x', 2, 1, 2, 1, 'y', 3, 1, 1, 2, 0, 'z', 1, 1, 2, 'w'}, uint8(2), int8(1))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, failAt int8) {
		checkMergerAgainstReference(t, data, 1+int(k%8), int(failAt))
	})
}

// TestMergerMatchesReference runs FuzzMerger's property over seeded random
// inputs on every `go test`, up to 64 sources.
func TestMergerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 60; round++ {
		data := make([]byte, rng.Intn(1500))
		rng.Read(data)
		failAt := -1
		if round%5 == 4 {
			failAt = rng.Intn(64)
		}
		checkMergerAgainstReference(t, data, 1+rng.Intn(64), failAt)
	}
}
