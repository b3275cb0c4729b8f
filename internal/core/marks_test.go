package core

import (
	"testing"
	"testing/quick"

	"rdmamr/internal/shuffle/wire"
)

// checkMarks cuts body under r and checks the marks against the walk: a
// body the walk cannot finish gets no marks, and otherwise there is one
// mark per chunk the walk packs from offset 0, and at every offset, a
// chunk's start or not, and under r or another rule, chunk answers as the
// walk does.
func checkMarks(t *testing.T, body []byte, r packRule) {
	t.Helper()
	marks := r.cut(body)
	var walk []PackResult
	for off := int64(0); off < int64(len(body)); {
		res, err := Pack(body, off, r.soft, r.hard, r.maxRecords, r.sizeAware)
		if err != nil {
			if marks != nil {
				t.Fatalf("walk fails at %d (%v) but the body got %d marks", off, err, len(marks))
			}
			return
		}
		walk = append(walk, res)
		off += int64(res.Bytes)
	}
	if len(marks) != len(walk) {
		t.Fatalf("%d marks for %d walked chunks", len(marks), len(walk))
	}
	same := func(off int64, maxRecords int) {
		t.Helper()
		got, err := r.chunk(body, marks, off, r.hard, maxRecords)
		want, wantErr := Pack(body, off, r.soft, r.hard, maxRecords, r.sizeAware)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("chunk at %d, %d records at most: %+v (%v), walk packs %+v (%v)", off, maxRecords, got, err, want, wantErr)
		}
	}
	off := int64(0)
	for _, res := range walk {
		same(off, r.maxRecords)
		same(off, r.maxRecords+1)
		same(off+1, r.maxRecords)
		off += int64(res.Bytes)
	}
	same(off, r.maxRecords)
}

func TestChunkMarksBasic(t *testing.T) {
	body := encodeN(100, 100, 100, 100)
	rec := len(body) / 4
	r := packRule{soft: 2 * rec, hard: 1 << 20, maxRecords: 100, sizeAware: true}
	marks := r.cut(body)
	want := []chunkMark{{end: int64(2 * rec), records: 2}, {end: int64(len(body)), records: 2}}
	if len(marks) != len(want) || marks[0] != want[0] || marks[1] != want[1] {
		t.Fatalf("marks = %+v, want %+v", marks, want)
	}
	checkMarks(t, body, r)
	// Served from the marks, a chunk reads no record.
	if res, err := r.chunk(nil, marks, int64(2*rec), r.hard, r.maxRecords); err != nil || res != (PackResult{Bytes: 2 * rec, Records: 2, EOF: true}) {
		t.Fatalf("second chunk from the marks alone: %+v, %v", res, err)
	}
	if marks := r.cut(body[:len(body)-1]); marks != nil {
		t.Fatalf("a truncated body got marks %+v", marks)
	}
	if marks := (packRule{}).cut(body); len(marks) != 0 {
		t.Fatalf("the zero rule cut %+v", marks)
	}
}

// TestChunkMarksMatchWalkProperty: for random record mixes and rules, the
// marks serve every chunk the walk packs.
func TestChunkMarksMatchWalkProperty(t *testing.T) {
	f := func(sizesRaw []uint16, softRaw uint16, maxRecRaw uint8, aware bool) bool {
		if len(sizesRaw) > 30 {
			sizesRaw = sizesRaw[:30]
		}
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s % 3000)
		}
		r := packRule{soft: int(softRaw%8192) + 16, hard: 1 << 20, maxRecords: int(maxRecRaw%9) + 1, sizeAware: aware}
		checkMarks(t, encodeN(sizes...), r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// FuzzChunkMarksMatchWalk cuts arbitrary, possibly corrupt bodies under
// arbitrary rules: the marks must serve exactly the walk's chunks, and a
// body whose walk fails must get none.
func FuzzChunkMarksMatchWalk(f *testing.F) {
	f.Add(encodeN(10, 2000, 5), 512, uint16(4096), uint8(4), true)
	f.Add(encodeN(100), 16, uint16(0), uint8(1), false)
	f.Add([]byte{0xff, 0x01, 0x02}, 64, uint16(64), uint8(3), true)
	f.Add(encodeN(3000, 10, 10), 1024, uint16(2000), uint8(8), true)
	f.Fuzz(func(t *testing.T, body []byte, soft int, slack uint16, maxRec uint8, aware bool) {
		r := packRule{soft: soft, hard: min(max(soft, 0), 1<<24) + int(slack) + 1, maxRecords: int(maxRec), sizeAware: aware}
		checkMarks(t, body, r)
	})
}

// TestManifestChunksFitManifestBytes pins that a full plan of one-range
// chunks always encodes within maxManifestBytes, so serveManifest never
// trims a manifest to fit an answer frame.
func TestManifestChunksFitManifestBytes(t *testing.T) {
	m := wire.ReadManifest{Chunks: make([]wire.ReadChunk, maxManifestChunks)}
	for i := range m.Chunks {
		m.Chunks[i].Ranges = []wire.ReadRange{{Addr: ^uint64(0), Len: 1<<31 - 1}}
	}
	if n := m.EncodedSize(); n > maxManifestBytes {
		t.Fatalf("%d one-range chunks encode to %d bytes, over maxManifestBytes %d", maxManifestChunks, n, maxManifestBytes)
	}
	if n := len(m.Encode()); n != m.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", n, m.EncodedSize())
	}
}
