package kv

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// wholeRun is the reference check of a run in one buffer: RunReader's
// framing, the body CRC against the trailer's, then RunReader's records.
func wholeRun(buf []byte) ([]Record, error) {
	rr, err := NewRunReader(buf)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf[4:len(buf)-12]) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return nil, ErrBadChecksum
	}
	var recs []Record
	for rr.Next() {
		recs = append(recs, rr.Record())
	}
	return recs, rr.Err()
}

// scanChunks feeds run to a RunScanner in chunks of the given lengths,
// taken in turn (one chunk when there are none), and returns the records
// it yields, cloned, and its verdict: Close's error, else Err's. It fails
// t when the record before the current one has not stayed whole.
func scanChunks(t *testing.T, run []byte, lens []int) ([]Record, error) {
	t.Helper()
	s := NewRunScanner(int64(len(run)))
	var recs []Record
	var prev Record
	for i := 0; len(run) > 0 || i == 0; i++ {
		n := len(run)
		if len(lens) > 0 {
			n = min(lens[i%len(lens)], n)
		}
		s.Feed(run[:n])
		run = run[n:]
		for s.Next() {
			if len(recs) > 0 && (!bytes.Equal(prev.Key, recs[len(recs)-1].Key) || !bytes.Equal(prev.Value, recs[len(recs)-1].Value)) {
				t.Fatalf("record %d changed while record %d was read", len(recs)-1, len(recs))
			}
			prev = s.Record()
			recs = append(recs, prev.Clone())
		}
	}
	if err := s.Close(); err != nil {
		return recs, err
	}
	return recs, s.Err()
}

// checkChunks asserts that scanning run in chunks of lens agrees with
// wholeRun: the same verdict and, when it passes, the same records.
func checkChunks(t *testing.T, run []byte, lens []int) {
	t.Helper()
	want, wantErr := wholeRun(run)
	got, err := scanChunks(t, run, lens)
	if err != wantErr {
		t.Fatalf("chunks %v: verdict %v, whole run %v", lens, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("chunks %v: %d records, whole run %d", lens, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("chunks %v: record %d = %v, whole run %v", lens, i, got[i], want[i])
		}
	}
}

// TestRunScannerStraddlesEveryOffset cuts one run at every chunk length
// from 1 byte to past its size, so every record, the magic and the
// trailer straddle a boundary somewhere, and does the same with one body,
// count or CRC byte flipped.
func TestRunScannerStraddlesEveryOffset(t *testing.T) {
	recs := mkRecs("a", "", "bb", "1", "ccc", string(bytes.Repeat([]byte{'v'}, 300)), "", "x")
	run := WriteRun(recs)
	for n := 1; n <= len(run)+1; n++ {
		checkChunks(t, run, []int{n})
		checkChunks(t, run, []int{n, 1, 3})
	}
	for _, pos := range []int{0, 5, 9, 40, len(run) - 12, len(run) - 3} {
		bad := bytes.Clone(run)
		bad[pos] ^= 0x10
		for n := 1; n <= len(run); n += 7 {
			checkChunks(t, bad, []int{n})
		}
	}
}

// sealed frames body as a run whose trailer counts count records and
// carries the body's true CRC.
func sealed(body []byte, count uint64) []byte {
	return sealRun(append(newRunBuffer(len(body)), body...), count)
}

// TestRunScannerVerdicts pins the scanner's verdict on runs that break
// each framing rule, alongside the reference check.
func TestRunScannerVerdicts(t *testing.T) {
	good := WriteRun(mkRecs("k", "v", "l", "w"))
	countOff := len(good) - 12
	withCount := func(n uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[countOff:], n)
		return b
	}
	for _, tc := range []struct {
		name string
		run  []byte
		want error
	}{
		{"good", good, nil},
		{"empty run", WriteRun(nil), nil},
		{"short", good[:15], ErrCorrupt},
		{"bad magic", append([]byte("RMR2"), good[4:]...), ErrCorrupt},
		{"body byte flipped", func() []byte { b := bytes.Clone(good); b[6] ^= 1; return b }(), ErrBadChecksum},
		{"count one short", withCount(1), ErrCorrupt},
		{"count one over", withCount(3), ErrCorrupt},
		{"count zero under a body", withCount(0), ErrCorrupt},
		{"last record cut short", sealed(EncodeAll(mkRecs("k", "v", "l", "w"))[:7], 2), ErrCorrupt},
		{"length past MaxRecordLen", sealed([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0}, 1), ErrCorrupt},
	} {
		if _, err := wholeRun(tc.run); err != tc.want {
			t.Errorf("%s: whole run %v, want %v", tc.name, err, tc.want)
		}
		for _, n := range []int{1, 2, 5, len(tc.run)} {
			if _, err := scanChunks(t, tc.run, []int{n}); err != tc.want {
				t.Errorf("%s in %d-byte chunks: %v, want %v", tc.name, n, err, tc.want)
			}
		}
		if err := VerifyChecksum(tc.run); err != tc.want {
			t.Errorf("%s: VerifyChecksum %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzRunChunks: for any encoded run, with one byte optionally flipped,
// cut into chunks at fuzz-chosen lengths, the scanner yields the records,
// count and verdict of RunReader plus the CRC check on the whole buffer.
func FuzzRunChunks(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0), []byte{})
	f.Add([]byte{1, 1, 1, '1', 2, 1, 1, 0, '2'}, uint16(0), byte(0), []byte{0})
	f.Add([]byte{3, 0xff, 1, 2, 1, 0, 0, 1, 'e'}, uint16(17), byte(0x80), []byte{9, 2, 200})
	f.Add([]byte{5, 3, 1, 2, 1, 'x', 'y', 'z', 4, 2, 'a'}, uint16(3), byte(0x01), []byte{3})
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte, cuts []byte) {
		run := WriteRun(fuzzRecords(data))
		if flip != 0 {
			run[int(pos)%len(run)] ^= flip
		}
		lens := make([]int, len(cuts))
		for i, c := range cuts {
			lens[i] = 1 + int(c)
		}
		checkChunks(t, run, lens)
	})
}
