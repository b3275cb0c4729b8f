package mapred

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdmamr/internal/kv"
)

// windowIterator lends each record in a buffer of its own and poisons a
// record when the Next after the following one starts: the one-behind
// window ReduceFetcher promises, and not a call longer.
type windowIterator struct {
	bufs  [][]byte // record i's key, then its value
	recs  []kv.Record
	calls int
}

func newWindowIterator(recs []kv.Record) *windowIterator {
	it := &windowIterator{}
	for _, r := range recs {
		buf := append(slices.Clone(r.Key), r.Value...)
		it.bufs = append(it.bufs, buf)
		it.recs = append(it.recs, kv.Record{Key: buf[:len(r.Key):len(r.Key)], Value: buf[len(r.Key):]})
	}
	return it
}

func (it *windowIterator) Next() bool {
	it.calls++
	// Call c returned record c-1; call c+2 poisons it.
	if old := it.calls - 3; old >= 0 && old < len(it.bufs) {
		for i := range it.bufs[old] {
			it.bufs[old][i] = 0xdb
		}
	}
	return it.calls <= len(it.recs)
}

func (it *windowIterator) Record() kv.Record { return it.recs[it.calls-1] }
func (it *windowIterator) Err() error        { return nil }

// reduceCall is one Reducer call, copied while the call runs.
type reduceCall struct {
	key    string
	values []string
}

// referenceGroups is the grouping reduceGroups must produce: each run of
// records whose keys compare equal under group, keyed by its first record.
func referenceGroups(recs []kv.Record, group kv.Comparator) []reduceCall {
	var out []reduceCall
	for i, r := range recs {
		if i == 0 || group(r.Key, recs[i-1].Key) != 0 {
			out = append(out, reduceCall{key: string(r.Key)})
		}
		last := &out[len(out)-1]
		last.values = append(last.values, string(r.Value))
	}
	return out
}

// TestReduceGroupingReadsRecordsOnlyInTheirWindow: whatever engine feeds it,
// the reduce task's grouping reads a record only while the one-behind rule
// keeps it whole — every record is poisoned as the Next after the
// following one starts — and still hands each Reducer call exactly the
// reference grouping's key and values, in order. A grouping that holds a
// record where the stream had it past that window — the older value of a
// two-value group, say — shows up here as a poisoned value.
func TestReduceGroupingReadsRecordsOnlyInTheirWindow(t *testing.T) {
	groups := func(keys, size int, value func(k, v int) string) []kv.Record {
		var recs []kv.Record
		for k := 0; k < keys; k++ {
			for v := 0; v < size; v++ {
				recs = append(recs, kv.Record{Key: []byte(fmt.Sprintf("key%05d", k)), Value: []byte(value(k, v))})
			}
		}
		return recs
	}
	numbered := func(k, v int) string { return fmt.Sprintf("value-%d-%d", k, v) }

	// Secondary sort: full keys "g<group>#<n>" order the stream, the part
	// before '#' groups it, and the Reducer sees each group's first key.
	var secondary []kv.Record
	for g := 0; g < 40; g++ {
		for n := 0; n <= g%5; n++ {
			secondary = append(secondary, kv.Record{Key: []byte(fmt.Sprintf("g%03d#%03d", g, n)), Value: []byte(fmt.Sprintf("s%d.%d", g, n))})
		}
	}
	byPrefix := func(a, b []byte) int {
		a, _, _ = bytes.Cut(a, []byte("#"))
		b, _, _ = bytes.Cut(b, []byte("#"))
		return bytes.Compare(a, b)
	}

	// Group sizes 1, 2, 3, 1, 2, 3, ...: every transition between sizes.
	var mixed []kv.Record
	for k := 0; k < 60; k++ {
		for v := 0; v <= k%3; v++ {
			mixed = append(mixed, kv.Record{Key: []byte(fmt.Sprintf("m%03d", k)), Value: []byte(strings.Repeat(string(rune('a'+v)), k+1))})
		}
	}

	for _, tc := range []struct {
		name  string
		recs  []kv.Record
		group kv.Comparator
	}{
		{"unique keys", groups(300, 1, numbered), kv.BytesComparator},
		{"groups of 2", groups(150, 2, numbered), kv.BytesComparator},
		{"groups of 1000", groups(3, 1000, numbered), kv.BytesComparator},
		{"mixed sizes", mixed, kv.BytesComparator},
		{"secondary sort", secondary, byPrefix},
		{"empty values", groups(50, 3, func(k, v int) string { return "" }), kv.BytesComparator},
		{"empty values, unique keys", groups(50, 1, func(k, v int) string { return "" }), kv.BytesComparator},
		{"one record", groups(1, 1, numbered), kv.BytesComparator},
		{"empty stream", nil, kv.BytesComparator},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceGroups(tc.recs, tc.group)
			var got []reduceCall
			reducer := func(key []byte, values [][]byte, _ func(k, v []byte)) error {
				call := reduceCall{key: string(key)}
				for _, v := range values {
					call.values = append(call.values, string(v))
				}
				got = append(got, call)
				return nil
			}
			n, err := reduceGroups(context.Background(), newWindowIterator(tc.recs), tc.group, reducer, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(tc.recs)) {
				t.Fatalf("read %d records, want %d", n, len(tc.recs))
			}
			if len(got) != len(want) {
				t.Fatalf("%d Reducer calls, want %d", len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.key != w.key || len(g.values) != len(w.values) {
					t.Fatalf("call %d: key %q with %d values, want %q with %d (poison shows as 0xdb)",
						i, g.key, len(g.values), w.key, len(w.values))
				}
				for j := range w.values {
					if g.values[j] != w.values[j] {
						t.Fatalf("call %d (key %q): value %d = %q, want %q (poison shows as 0xdb)",
							i, w.key, j, g.values[j], w.values[j])
					}
				}
			}
		})
	}
}
