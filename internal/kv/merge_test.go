package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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
// its slices already fit, over 2 sources and over 100; Reset(nil) leaves
// no source or record behind.
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
	// b has no NextInto: Reset wraps it in its source slot.
	a, b := NewSliceIterator(sortedRecs("e", "g")), NewSliceIterator(sortedRecs("f"))
	plainB := &plainIterator{b}
	if allocs := testing.AllocsPerRun(10, func() {
		a.idx, b.idx = -1, -1
		m.Reset(BytesComparator, a, plainB)
		if !merged("efg") {
			t.Fatal("a merger Reset over new sources did not merge them")
		}
	}); allocs != 0 {
		t.Fatalf("Reset and a merge over two sources allocated %.0f times, want 0", allocs)
	}
	// A 100-source tree, its slices grown by one merge first.
	wide := make([]Iterator, 100)
	for s := range wide {
		wide[s] = NewSliceIterator(sortedRecs(string(rune('0'+s%10)), string(rune('A'+s%26))))
	}
	rewind := func() {
		for _, it := range wide {
			it.(*SliceIterator).idx = -1
		}
	}
	drain := func() (n int) {
		for m.Next() {
			n++
		}
		return n
	}
	m.Reset(nil, wide...)
	drain()
	if allocs := testing.AllocsPerRun(10, func() {
		rewind()
		m.Reset(nil, wide...)
		if drain() != 200 {
			t.Fatal("a merger Reset over 100 sources lost records")
		}
	}); allocs != 0 {
		t.Fatalf("Reset and a merge over 100 sources allocated %.0f times, want 0", allocs)
	}
	reverse := func(x, y []byte) int { return bytes.Compare(y, x) }
	m.Reset(reverse, NewSliceIterator([]Record{{Key: []byte("z")}, {Key: []byte("x")}}), NewSliceIterator([]Record{{Key: []byte("y")}}))
	if !merged("zyx") {
		t.Fatal("a merger Reset under a new comparator did not merge under it")
	}
	m.Reset(nil)
	for _, s := range m.srcs[:cap(m.srcs)] {
		if s.it != nil || s.wrap.Iterator != nil || s.rec.Key != nil {
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

// plainIterator is an Iterator without NextInto, which the merger wraps.
type plainIterator struct{ Iterator }

// cutIterator yields the first cut records of its source and then fails,
// as a source whose stream breaks mid-way does. It has no NextInto, so the
// merger reads it through the wrapper.
type cutIterator struct {
	Iterator
	cut int
	err error
}

func (it *cutIterator) Next() bool {
	if it.cut == 0 {
		return false
	}
	it.cut--
	return it.Iterator.Next()
}

func (it *cutIterator) Err() error {
	if it.cut == 0 {
		return it.err
	}
	return nil
}

// sharedPrefix is prepended to every key of a shared round, so that under
// byte order every prefix comparison in the tree ties and the keys decide.
var sharedPrefix = []byte("sharedpf")

// fuzzSources deals fuzzRecords' records — small alphabet, so keys repeat
// within and across sources, with empty keys, keys on both sides of the
// 8-byte prefix, "a" next to "a\x00", long shared prefixes and 20 KB
// values — out to k sources, tags each value with (source, position) so
// that no two records are interchangeable, and sorts each source stably
// under cmp. Its alphabet's 'b' becomes 0xFF, so a key of eight or more
// such bytes has the all-ones prefix of an exhausted source. With few
// records some sources stay empty. With shared, every key starts with
// sharedPrefix.
func fuzzSources(data []byte, k int, cmp Comparator, shared bool) [][]Record {
	sources := make([][]Record, k)
	for i, r := range fuzzRecords(data) {
		for j, c := range r.Key {
			if c == 'b' {
				r.Key[j] = 0xFF
			}
		}
		s := (i*5 + len(r.Key) + len(r.Value)) % k
		r.Value = append([]byte{byte(s), byte(i), byte(i >> 8)}, r.Value...)
		if shared {
			r.Key = append(append([]byte(nil), sharedPrefix...), r.Key...)
		}
		sources[s] = append(sources[s], r)
	}
	for _, recs := range sources {
		SortRecords(recs, cmp)
	}
	return sources
}

// mergeSourceKinds are the sources the reference check merges the same
// records from: in memory, and encoded, where each record is decoded
// (one-byte headers and varint ones) as the merge reads it.
var mergeSourceKinds = []struct {
	name string
	open func(recs []Record) Iterator
}{
	{"slice", func(recs []Record) Iterator { return NewSliceIterator(recs) }},
	{"buffer", func(recs []Record) Iterator { return NewBufferIterator(EncodeAll(recs)) }},
	{"run", func(recs []Record) Iterator {
		rr, err := NewRunReader(WriteRun(recs))
		if err != nil {
			panic(err)
		}
		return rr
	}},
}

// checkMergerAgainstReference requires the merged record sequence — equal
// keys included — to be what a stable sort of the sources concatenated in
// source order gives, for the default order passed as nil and by name,
// and for a custom order, with the sources in memory and encoded. With
// failAt >= 0 one source breaks half-way: the merge must then stop with
// that source's error, right after that source's last record.
func checkMergerAgainstReference(t *testing.T, data []byte, k int, failAt int, shared bool) {
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
		sources := fuzzSources(data, k, cc.ref, shared)
		var want []Record
		for _, recs := range sources {
			want = append(want, recs...)
		}
		sort.SliceStable(want, func(i, j int) bool { return cc.ref(want[i].Key, want[j].Key) < 0 })
		for _, kind := range mergeSourceKinds {
			name := cc.name + "/" + kind.name
			its := make([]Iterator, k)
			for s, recs := range sources {
				its[s] = kind.open(recs)
			}
			var failed error
			stop := len(want) // records the merge yields before it stops
			if failAt >= 0 {
				failed = errors.New("source failed")
				recs := sources[failAt%k]
				cut := len(recs) / 2
				its[failAt%k] = &cutIterator{Iterator: its[failAt%k], cut: cut, err: failed}
				stop = 0
				if cut > 0 {
					stop = slices.IndexFunc(want, func(r Record) bool { return bytes.Equal(r.Value, recs[cut-1].Value) }) + 1
				}
			}
			m := NewMerger(cc.cmp, its...)
			n := 0
			for m.Next() {
				got := m.Record()
				if n >= stop {
					t.Fatalf("%s: merger yielded more than the %d records it had before stopping", name, stop)
				}
				if !bytes.Equal(got.Key, want[n].Key) || !bytes.Equal(got.Value, want[n].Value) {
					t.Fatalf("%s: record %d of %d is %q=%x, want %q=%x (k=%d)",
						name, n, len(want), got.Key, got.Value[:3], want[n].Key, want[n].Value[:3], k)
				}
				n++
			}
			if m.Err() != failed {
				t.Fatalf("%s: Err = %v, want %v", name, m.Err(), failed)
			}
			if m.Next() {
				t.Fatalf("%s: Next true after the end", name)
			}
			if n != stop {
				t.Fatalf("%s: merged %d records, want %d", name, n, stop)
			}
		}
	}
}

// onesData is n fuzzRecords records whose keys are ten bytes, the first
// eight 'b' (0xFF in fuzzSources: the exhausted source's prefix) and, with
// tail, the last two from the whole alphabet.
func onesData(rng *rand.Rand, n int, tail bool) []byte {
	var data []byte
	for range n {
		data = append(data, 10, byte(rng.Intn(6)), 'b', 'b', 'b', 'b', 'b', 'b', 'b', 'b', 'b', 'b')
		if tail {
			data[len(data)-2], data[len(data)-1] = byte(rng.Intn(3)), byte(rng.Intn(3))
		}
		for range data[len(data)-11] % 7 {
			data = append(data, byte(rng.Intn(256)))
		}
	}
	return data
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
	// Every key behind one 8-byte prefix (k's top bit).
	f.Add([]byte{3, 1, 1, 2, 1, 'x', 2, 1, 2, 1, 'y', 3, 1, 1, 2, 0, 'z', 1, 1, 2, 'w'}, uint8(0x83), int8(-1))
	// Trees with padding leaves (3 and 5 sources, 100 of 128) and a full
	// one 7 levels deep.
	rng := rand.New(rand.NewSource(3))
	mixed := make([]byte, 3000)
	rng.Read(mixed)
	for _, k := range []uint8{2, 4, 99, 127} {
		f.Add(mixed, k, int8(-1))
	}
	// Every key ten 0xFF bytes: each prefix ties the exhausted sources'.
	f.Add(onesData(rng, 200, false), uint8(4), int8(-1))
	// The last of 100 sources is empty and fails during the first Next.
	f.Add(mixed[:200], uint8(99), int8(99))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, failAt int8) {
		checkMergerAgainstReference(t, data, 1+int(k&0x7f), int(failAt), k&0x80 != 0)
	})
}

// TestMergerMatchesReference runs FuzzMerger's property over seeded random
// inputs on every `go test`, up to 128 sources (a tree 7 levels deep),
// every third round with all keys behind one prefix and every seventh
// with every key's prefix all ones.
func TestMergerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 70; round++ {
		k := 1 + rng.Intn(128)
		data := make([]byte, rng.Intn(1500))
		if round%10 == 9 {
			k, data = 128, make([]byte, 4000+rng.Intn(4000))
		}
		rng.Read(data)
		if round%7 == 6 {
			data = onesData(rng, rng.Intn(400), round%2 == 0)
		}
		failAt := -1
		if round%5 == 4 {
			failAt = rng.Intn(128)
		}
		checkMergerAgainstReference(t, data, k, failAt, round%3 == 2)
	}
}

// TestMergerComparatorCallsPerRecord: under a custom comparator every
// prefix ties, so each match calls it; after the build a record costs one
// match per level of the replayed path, ⌈log₂ k⌉ calls at most.
func TestMergerComparatorCallsPerRecord(t *testing.T) {
	for _, k := range []int{64, 100} {
		calls := 0
		counting := func(a, b []byte) int { calls++; return bytes.Compare(a, b) }
		rng := rand.New(rand.NewSource(int64(k)))
		its := make([]Iterator, k)
		for s := range its {
			keys := make([]string, 1+rng.Intn(30))
			for i := range keys {
				keys[i] = fmt.Sprint(rng.Intn(1000))
			}
			its[s] = NewSliceIterator(sortedRecs(keys...))
		}
		levels := bits.Len(uint(k - 1))
		m := NewMerger(counting, its...)
		m.Next()
		for n := 1; ; n++ {
			calls = 0
			if !m.Next() {
				break
			}
			if calls > levels {
				t.Fatalf("k=%d: record %d took %d comparator calls, want at most %d", k, n, calls, levels)
			}
		}
	}
}

// BenchmarkMerger merges k sorted BufferIterator sources of TeraSort-shaped
// records (random 10-byte keys, 90-byte values), 40 a source, each record
// decoded as the merge reads it, and reports the cost per merged record;
// k=100 is the benchmark TeraSort's map count per reduce.
func BenchmarkMerger(b *testing.B) {
	for _, k := range []int{8, 64, 96, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			bufs := make([][]byte, k)
			srcs := make([]*BufferIterator, k)
			its := make([]Iterator, k)
			for s := range bufs {
				recs := make([]Record, 40)
				for i := range recs {
					recs[i] = Record{Key: make([]byte, 10), Value: make([]byte, 90)}
					rng.Read(recs[i].Key)
					rng.Read(recs[i].Value)
				}
				SortRecords(recs, BytesComparator)
				bufs[s] = EncodeAll(recs)
				srcs[s] = NewBufferIterator(bufs[s])
				its[s] = srcs[s]
			}
			m := NewMerger(nil)
			b.ResetTimer()
			n := 0
			for range b.N {
				for s, it := range srcs {
					it.Reset(bufs[s])
				}
				m.Reset(nil, its...)
				for m.Next() {
					n++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/rec")
		})
	}
}
