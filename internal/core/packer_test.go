package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rdmamr/internal/kv"
)

func encodeN(sizes ...int) []byte {
	var recs []kv.Record
	for i, s := range sizes {
		recs = append(recs, kv.Record{Key: []byte{byte(i)}, Value: make([]byte, s)})
	}
	return kv.EncodeAll(recs)
}

func TestPackSizeAwareRespectsSoftLimit(t *testing.T) {
	body := encodeN(100, 100, 100, 100)
	recLen := len(body) / 4
	res, err := Pack(body, 0, recLen*2, 1<<20, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Bytes != recLen*2 || res.EOF {
		t.Fatalf("res = %+v", res)
	}
	// Continue from the returned offset.
	res2, err := Pack(body, int64(res.Bytes), recLen*2, 1<<20, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records != 2 || !res2.EOF {
		t.Fatalf("res2 = %+v", res2)
	}
}

func TestPackCountDrivenIgnoresSoftLimit(t *testing.T) {
	// Hadoop-A mode: 3 records requested, soft limit tiny → still 3
	// records (capped only by the hard buffer limit).
	body := encodeN(1000, 1000, 1000, 1000)
	res, err := Pack(body, 0, 10, 1<<20, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 3 {
		t.Fatalf("count-driven packed %d records, want 3", res.Records)
	}
	if res.Bytes <= 3000 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestPackCountDrivenRespectsHardLimit(t *testing.T) {
	body := encodeN(1000, 1000, 1000)
	one := 1004 // approx one record; hard limit fits only one
	res, err := Pack(body, 0, 10, one+1, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("hard limit ignored: %+v", res)
	}
}

func TestPackAlwaysMakesProgress(t *testing.T) {
	// First record bigger than the soft limit still ships (size-aware).
	body := encodeN(5000)
	res, err := Pack(body, 0, 100, 1<<20, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || !res.EOF {
		t.Fatalf("res = %+v", res)
	}
}

func TestPackRecordExceedsBuffer(t *testing.T) {
	body := encodeN(5000)
	if _, err := Pack(body, 0, 100, 1000, 10, true); err == nil {
		t.Fatal("record larger than copier buffer accepted")
	}
}

func TestPackEmptyBody(t *testing.T) {
	res, err := Pack(nil, 0, 100, 1000, 10, true)
	if err != nil || !res.EOF || res.Records != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestPackBadOffset(t *testing.T) {
	body := encodeN(10)
	if _, err := Pack(body, -1, 100, 1000, 10, true); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := Pack(body, int64(len(body)+1), 100, 1000, 10, true); err == nil {
		t.Fatal("offset past end accepted")
	}
}

func TestPackOffsetAtEndIsEOF(t *testing.T) {
	body := encodeN(10)
	res, err := Pack(body, int64(len(body)), 100, 1000, 10, true)
	if err != nil || !res.EOF || res.Bytes != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestPackCorruptBody(t *testing.T) {
	if _, err := Pack([]byte{0xff, 0xff}, 0, 100, 1000, 10, true); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

func TestPackMaxRecordsHonored(t *testing.T) {
	body := encodeN(10, 10, 10, 10, 10)
	res, err := Pack(body, 0, 1<<20, 1<<20, 2, true)
	if err != nil || res.Records != 2 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestPackWalksWholeBody: packing chunk after chunk visits every record
// exactly once and terminates with EOF, for random record sizes and
// limits — the invariant the chunked transfer relies on.
func TestPackWalksWholeBody(t *testing.T) {
	f := func(sizesRaw []uint16, softRaw uint16, aware bool) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 40 {
			sizesRaw = sizesRaw[:40]
		}
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s % 3000)
		}
		body := encodeN(sizes...)
		soft := int(softRaw%4096) + 16
		hard := 1 << 20
		var total, records int
		offset := int64(0)
		for i := 0; ; i++ {
			if i > len(sizes)+5 {
				return false // no termination
			}
			res, err := Pack(body, offset, soft, hard, 7, aware)
			if err != nil {
				return false
			}
			total += res.Bytes
			records += res.Records
			offset += int64(res.Bytes)
			if res.EOF {
				break
			}
			if res.Bytes == 0 {
				return false // stuck
			}
		}
		return total == len(body) && records == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// packReference is Pack's record walk as it was before it prefetched.
func packReference(body []byte, offset int64, softLimit, hardLimit, maxRecords int, sizeAware bool) (PackResult, error) {
	if offset < 0 || offset > int64(len(body)) {
		return PackResult{}, fmt.Errorf("core: pack offset %d outside body of %d", offset, len(body))
	}
	if softLimit > hardLimit {
		softLimit = hardLimit
	}
	if maxRecords < 1 {
		maxRecords = 1
	}
	rest := body[offset:]
	if len(rest) == 0 {
		return PackResult{EOF: true}, nil
	}
	var res PackResult
	for res.Records < maxRecords && res.Bytes < len(rest) {
		n, err := kv.NextRecordSize(rest[res.Bytes:])
		if err != nil {
			return PackResult{}, fmt.Errorf("core: corrupt record at offset %d: %w", offset+int64(res.Bytes), err)
		}
		if res.Records > 0 {
			limit := hardLimit
			if sizeAware {
				limit = softLimit
			}
			if res.Bytes+n > limit {
				break
			}
		} else if n > hardLimit {
			return PackResult{}, fmt.Errorf("core: record of %d bytes exceeds copier buffer of %d", n, hardLimit)
		}
		res.Bytes += n
		res.Records++
	}
	res.EOF = int(offset)+res.Bytes == len(body)
	return res, nil
}

// TestPackEveryOffset: over bodies from empty to about 3 KiB of mixed
// records — one-byte and two-byte length headers, records shorter and
// longer than a cache line — and the same bodies cut one byte short, Pack
// from every record start under several limits gives what the walk
// without prefetching gives, errors included.
func TestPackEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var full []byte
	ends := []int{0}
	for len(full) < 3<<10 {
		r := kv.Record{Key: make([]byte, rng.Intn(20)), Value: make([]byte, []int{rng.Intn(40), 90, 100 + rng.Intn(200)}[rng.Intn(3)])}
		rng.Read(r.Key)
		full = kv.AppendRecord(full, r)
		ends = append(ends, len(full))
	}
	type limits struct{ soft, hard, maxRecords int }
	var cases []limits
	for _, soft := range []int{1, 100, 1 << 10, 4 << 10} {
		for _, hard := range []int{300, 1 << 20} {
			for _, maxRecords := range []int{1, 7, 1 << 20} {
				cases = append(cases, limits{soft, hard, maxRecords})
			}
		}
	}
	for n, end := range ends {
		for _, body := range [][]byte{full[:end], full[:max(end-1, 0)]} {
			for _, off := range append(ends[:n:n], len(body)) {
				for _, c := range cases {
					for _, aware := range []bool{true, false} {
						got, gotErr := Pack(body, int64(off), c.soft, c.hard, c.maxRecords, aware)
						want, wantErr := packReference(body, int64(off), c.soft, c.hard, c.maxRecords, aware)
						if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("body %d B, offset %d, %+v, sizeAware %v: Pack = %+v, %v; want %+v, %v",
								len(body), off, c, aware, got, gotErr, want, wantErr)
						}
					}
				}
			}
		}
	}
}
