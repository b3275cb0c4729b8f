package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/wire"
)

// marksServer is one tracker whose rule cuts a few-KB run into more chunks
// than one manifest holds.
func marksServer(t *testing.T) *trackerServer {
	t.Helper()
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetInt(config.KeyRDMAPacketBytes, 2048)
	cluster, err := mapred.NewCluster(1, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster.Servers()[0].(*trackerServer)
}

// marksRun encodes n records of about 500 bytes each.
func marksRun(n int) []byte {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: bytes.Repeat([]byte{byte(i)}, 400+i%200)}
	}
	return kv.WriteRun(recs)
}

// manifestAt asks s for a manifest of key's run from offset, limited to
// maxRecords records a chunk, and decodes it; nil when s answers eagerly.
func manifestAt(t *testing.T, s *trackerServer, key CacheKey, offset int64, maxRecords int) *wire.ReadManifest {
	t.Helper()
	a := &answers{s: s}
	a.batch.Reset(nil)
	req := wire.DataRequest{JobID: key.JobID, MapID: int32(key.MapID), ReduceID: int32(key.Partition),
		Offset: offset, MaxBytes: int32(s.rule.hard), MaxRecords: int32(maxRecords), Flags: wire.FlagFetchRead}
	if !s.serveManifest(a, &req) {
		return nil
	}
	frame, _ := a.batch.Frame()
	m, err := wire.DecodeReadManifest(frame)
	if err != nil {
		t.Fatal(err)
	}
	s.leases.release(m.LeaseID)
	return m
}

// checkServedLikeWalk walks key's cached run to EOF by manifests and checks
// every chunk against the walk under maxRecords: same boundaries, one range
// over exactly the chunk's bytes. Each chunk is also asked for eagerly,
// and must come back staged with the same header and bytes.
func checkServedLikeWalk(t *testing.T, s *trackerServer, key CacheKey, maxRecords int) {
	t.Helper()
	view, ok := s.cache.Acquire(key)
	if !ok {
		t.Fatalf("%+v is not cached", key)
	}
	defer view.Release()
	start, end, _, err := kv.RunBodySpan(view.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	body := view.Bytes()[start:end]
	manifests := 0
	for off := int64(0); off < int64(len(body)); {
		m := manifestAt(t, s, key, off, maxRecords)
		if m == nil {
			t.Fatalf("offset %d answered eagerly", off)
		}
		manifests++
		for _, c := range m.Chunks {
			want, err := Pack(body, off, s.rule.soft, s.rule.hard, maxRecords, s.rule.sizeAware)
			if err != nil {
				t.Fatal(err)
			}
			got := PackResult{Bytes: int(c.Bytes), Records: int(c.Records), EOF: c.EOF}
			if c.Offset != off || got != want {
				t.Fatalf("chunk at %d: served %+v at %d, walk packs %+v", off, got, c.Offset, want)
			}
			if len(c.Ranges) != 1 || c.Ranges[0].Addr != view.Addr()+uint64(start)+uint64(off) || c.Ranges[0].Len != c.Bytes {
				t.Fatalf("chunk at %d: ranges %+v, want one range over its %d bytes", off, c.Ranges, c.Bytes)
			}
			req := wire.DataRequest{JobID: key.JobID, MapID: int32(key.MapID), ReduceID: int32(key.Partition),
				Offset: off, MaxBytes: int32(s.rule.hard), MaxRecords: int32(maxRecords)}
			h, staged := s.buildResponse(&req)
			if h.Err != "" || int(h.Bytes) != want.Bytes || int(h.Records) != want.Records || h.EOF != want.EOF {
				t.Fatalf("eager chunk at %d: %+v, walk packs %+v", off, h, want)
			}
			if !bytes.Equal(staged.blk.Bytes()[:staged.n], body[off:off+int64(want.Bytes)]) {
				t.Fatalf("eager chunk at %d staged other bytes", off)
			}
			staged.release()
			off += int64(want.Bytes)
		}
	}
	if manifests < 2 {
		t.Fatalf("the run fit %d manifest; the test wants it to span several", manifests)
	}
}

// TestCachedRunsServedFromMarks: an adopted run and a Put run are cut into
// chunks when the cache admits them, and are served from the marks with
// the walk's chunks, one range each. A request under another rule is
// served by the walk, and a Put run with corrupt framing gets no marks
// and is answered with the corrupt-record error, as the walk reports it.
func TestCachedRunsServedFromMarks(t *testing.T) {
	s := marksServer(t)
	tt := s.tt
	job := mapred.JobInfo{ID: "job_marks", NumMaps: 2, NumReduces: 1}

	// Map 0's run is adopted: encoded into a registered block the store
	// holds pinned, and handed to the cache at commit.
	run := marksRun(400)
	name := mapred.MapOutputKey(job.ID, 0, 0)
	dst, owner, err := s.allocRun(name, len(run))
	if err != nil {
		t.Fatal(err)
	}
	copy(dst, run)
	tt.Store().OverwritePinned(name, dst, owner)
	s.MapOutputReady(job, 0)
	if n := tt.Counters().Get("cache.adopted"); n != 1 {
		t.Fatalf("cache.adopted = %d, want 1", n)
	}
	adopted := CacheKey{JobID: job.ID, MapID: 0}
	// Map 1's run is a Put copy.
	put := CacheKey{JobID: job.ID, MapID: 1}
	if !s.cache.Put(put, marksRun(300), PriorityDemand) {
		t.Fatal("put rejected")
	}

	for _, key := range []CacheKey{adopted, put} {
		body, ok := s.cache.pin(key)
		if !ok || len(body.marks) <= maxManifestChunks {
			t.Fatalf("%+v: cached %v with %d marks, want more than a manifest's %d", key, ok, len(body.marks), maxManifestChunks)
		}
		body.Release()
		checkServedLikeWalk(t, s, key, s.rule.maxRecords)
		checkServedLikeWalk(t, s, key, 3)
	}

	// Manifests come from the marks, not from a walk: given other marks, a
	// manifest follows them.
	body, _ := s.cache.pin(put)
	rb, _, _ := kv.RunBody(body.data)
	half := s.rule
	half.soft /= 2
	body.marks = half.cut(rb)
	if m := manifestAt(t, s, put, 0, s.rule.maxRecords); m == nil || int64(m.Chunks[0].Bytes) != body.marks[0].end {
		t.Fatalf("manifest %+v does not follow the body's marks %+v", m, body.marks[:1])
	}
	body.Release()

	// A Put run whose record 100 is corrupt: the walk fails, so it is
	// admitted with no marks. A manifest from 0 stops before the chunk
	// holding that record, and a request there is answered with the error.
	bad := CacheKey{JobID: job.ID, MapID: 2}
	corrupt := marksRun(200)
	rb, _, err = kv.RunBody(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for i := 0; i < 100; i++ {
		n, _ := kv.NextRecordSize(rb[at:])
		at += n
	}
	copy(rb[at:], bytes.Repeat([]byte{0xff}, 10))
	if !s.cache.Put(bad, corrupt, PriorityDemand) {
		t.Fatal("put rejected")
	}
	body, _ = s.cache.pin(bad)
	if body.marks != nil {
		t.Fatalf("a run with corrupt framing got %d marks", len(body.marks))
	}
	body.Release()
	var off int64
	for m := manifestAt(t, s, bad, 0, s.rule.maxRecords); m != nil; m = manifestAt(t, s, bad, off, s.rule.maxRecords) {
		last := m.Chunks[len(m.Chunks)-1]
		off = last.Offset + int64(last.Bytes)
	}
	if off > int64(at) {
		t.Fatalf("manifests served past the corrupt record at %d, to %d", at, off)
	}
	req := wire.DataRequest{JobID: bad.JobID, MapID: int32(bad.MapID), Offset: off,
		MaxBytes: int32(s.rule.hard), MaxRecords: int32(s.rule.maxRecords)}
	if h, _ := s.buildResponse(&req); !strings.Contains(h.Err, "corrupt record") || h.Transient {
		t.Fatalf("a request at the corrupt chunk was answered %+v, want the corrupt-record error", h)
	}
}
