package mapred

import (
	"bytes"
	"fmt"
	"testing"

	"rdmamr/internal/kv"
)

func TestFixedRecordInput(t *testing.T) {
	f := FixedRecordInput{RecordLen: 10, KeyLen: 4}
	split := []byte("AAAA111111BBBB222222")
	it, err := f.Records(split)
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals []string
	for it.Next() {
		keys = append(keys, string(it.Record().Key))
		vals = append(vals, string(it.Record().Value))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(keys) != 2 || keys[0] != "AAAA" || vals[1] != "222222" {
		t.Fatalf("keys=%v vals=%v", keys, vals)
	}
}

func TestFixedRecordInputRejectsTornSplit(t *testing.T) {
	f := FixedRecordInput{RecordLen: 10, KeyLen: 4}
	if _, err := f.Records(make([]byte, 15)); err == nil {
		t.Fatal("torn split accepted")
	}
}

func TestFixedRecordInputRejectsBadGeometry(t *testing.T) {
	for _, f := range []FixedRecordInput{
		{RecordLen: 0, KeyLen: 1},
		{RecordLen: 10, KeyLen: 0},
		{RecordLen: 10, KeyLen: 11},
	} {
		if _, err := f.Records(nil); err == nil {
			t.Fatalf("bad geometry %+v accepted", f)
		}
	}
}

func TestFixedRecordSplittable(t *testing.T) {
	if !TeraInput.Splittable(1000) {
		t.Fatal("1000 % 100 == 0 must be splittable")
	}
	if TeraInput.Splittable(1024) {
		t.Fatal("1024 % 100 != 0 must not be splittable")
	}
}

func TestTeraInputGeometry(t *testing.T) {
	if TeraInput.RecordLen != 100 || TeraInput.KeyLen != 10 {
		t.Fatalf("TeraSort geometry changed: %+v", TeraInput)
	}
}

func TestRunInput(t *testing.T) {
	run := kv.WriteRun([]kv.Record{{Key: []byte("k"), Value: []byte("v")}})
	it, err := RunInput{}.Records(run)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() || string(it.Record().Key) != "k" {
		t.Fatal("run record lost")
	}
	if (RunInput{}).Splittable(1 << 20) {
		t.Fatal("run input must not be splittable")
	}
}

func TestRunInputCorrupt(t *testing.T) {
	if _, err := (RunInput{}).Records([]byte("not a run")); err == nil {
		t.Fatal("corrupt run accepted")
	}
}

func TestLineInput(t *testing.T) {
	it, err := LineInput{}.Records([]byte("alpha\nbeta\n\ngamma"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for it.Next() {
		lines = append(lines, string(it.Record().Value))
	}
	want := []string{"alpha", "beta", "", "gamma"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %q", lines)
		}
	}
}

func TestLineInputEmpty(t *testing.T) {
	it, _ := LineInput{}.Records(nil)
	if it.Next() {
		t.Fatal("empty input yielded a line")
	}
}

// TestMapOutputKeyStable: the key names persisted map outputs, so it stays
// byte-identical to the fmt form it was first written in, zero padding
// and widths past five digits included.
func TestMapOutputKeyStable(t *testing.T) {
	if k := MapOutputKey("job_1", 3, 7); k != "mapout/job_1/m00003/p00007" {
		t.Fatalf("key format changed: %s", k)
	}
	for _, id := range []int{0, 7, 99_999, 100_000, 1_234_567, -7, -123_456} {
		for _, job := range []string{"job_bench", ""} {
			want := fmt.Sprintf("mapout/%s/m%05d/p%05d", job, id, 12_345-id)
			if got := MapOutputKey(job, id, 12_345-id); got != want {
				t.Errorf("MapOutputKey(%q, %d, %d) = %q, want %q", job, id, 12_345-id, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = MapOutputKey("job_bench", 17, 3) }); allocs > 1 {
		t.Errorf("a key costs %v allocations, want the string alone", allocs)
	}
}

func TestIdentityFunctions(t *testing.T) {
	var got []kv.Record
	emit := func(k, v []byte) { got = append(got, kv.Record{Key: k, Value: v}.Clone()) }
	if err := IdentityMapper([]byte("k"), []byte("v"), emit); err != nil {
		t.Fatal(err)
	}
	if err := IdentityReducer([]byte("k"), [][]byte{[]byte("v1"), []byte("v2")}, emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[2].Value, []byte("v2")) {
		t.Fatalf("got %v", got)
	}
}

func TestJobDefaults(t *testing.T) {
	j := &Job{Name: "j", Input: []string{"/in"}, Output: "/out"}
	job, err := j.withDefaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.Mapper == nil || job.Reducer == nil || job.Partitioner == nil || job.Comparator == nil || job.InputFormat == nil {
		t.Fatal("defaults not applied")
	}
}

func TestJobValidation(t *testing.T) {
	cases := []*Job{
		{Input: []string{"/in"}, Output: "/out"}, // no name
		{Name: "j", Output: "/out"},              // no input
		{Name: "j", Input: []string{"/in"}},      // no output
		{Name: "j", Input: []string{"/in"}, Output: "/out", NumReduces: -1},
	}
	for i, j := range cases {
		if _, err := j.withDefaults(nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
