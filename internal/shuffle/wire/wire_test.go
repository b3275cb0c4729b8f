package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestDataRequestRoundTrip(t *testing.T) {
	f := func(jobID string, mapID, reduceID int32, offset int64, maxBytes, maxRecords int32, addr uint64, rkey uint32) bool {
		if len(jobID) > 65535 {
			jobID = jobID[:65535]
		}
		in := &DataRequest{
			JobID: jobID, MapID: mapID, ReduceID: reduceID, Offset: offset,
			MaxBytes: maxBytes, MaxRecords: maxRecords, RemoteAddr: addr, RKey: rkey,
			Tag: rkey ^ 0x5a5a5a5a,
		}
		out, err := DecodeDataRequest(in.Encode())
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataResponseRoundTrip(t *testing.T) {
	f := func(mapID, reduceID int32, offset int64, bytes, records int32, eof bool, errStr string, addr uint64, rkey uint32) bool {
		if len(errStr) > 65535 {
			errStr = errStr[:65535]
		}
		in := &DataResponse{
			MapID: mapID, ReduceID: reduceID, Offset: offset,
			Bytes: bytes, Records: records, EOF: eof, Err: errStr,
			RemoteAddr: addr, RKey: rkey, Tag: rkey ^ 0xa5a5a5a5,
			Transient: errStr != "" && eof,
		}
		out, err := DecodeDataResponse(in.Encode())
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWrongType(t *testing.T) {
	req := (&DataRequest{JobID: "j"}).Encode()
	if _, err := DecodeDataResponse(req); err == nil {
		t.Fatal("request decoded as response")
	}
	resp := (&DataResponse{}).Encode()
	if _, err := DecodeDataRequest(resp); err == nil {
		t.Fatal("response decoded as request")
	}
}

func TestDecodeTruncated(t *testing.T) {
	// The trailing tag + flags words are optional extensions, so
	// truncations that only cut into them still decode (as Tag 0,
	// Flags 0); anything shorter must error.
	req := (&DataRequest{JobID: "jobjobjob"}).Encode()
	for i := 0; i < len(req)-8; i++ {
		if _, err := DecodeDataRequest(req[:i]); err == nil {
			t.Fatalf("truncated request of %d bytes accepted", i)
		}
	}
	// Responses carry a 5-byte optional tail (4-byte tag + transient
	// flag); truncations into that tail still decode as zero values.
	resp := (&DataResponse{Err: "some failure"}).Encode()
	for i := 0; i < len(resp)-5; i++ {
		if _, err := DecodeDataResponse(resp[:i]); err == nil {
			t.Fatalf("truncated response of %d bytes accepted", i)
		}
	}
}

func TestDecodeLegacyWithoutTag(t *testing.T) {
	// A pre-ring peer encodes neither tag nor flags; decoding must
	// succeed with both zero and every other field intact.
	req := &DataRequest{JobID: "legacy", MapID: 3, Offset: 99, RKey: 7, Tag: 42, Flags: FlagFetchRead}
	enc0 := req.Encode()
	got, err := DecodeDataRequest(enc0[:len(enc0)-8])
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 0 || got.Flags != 0 || got.MapID != 3 || got.Offset != 99 || got.RKey != 7 {
		t.Fatalf("legacy request decode: %+v", got)
	}
	// A ring-era peer that predates capability flags sends the tag but no
	// flags word: Tag survives, Flags defaults to none.
	fgot, err := DecodeDataRequest(enc0[:len(enc0)-4])
	if err != nil {
		t.Fatal(err)
	}
	if fgot.Tag != 42 || fgot.Flags != 0 {
		t.Fatalf("tag-only request decode: %+v", fgot)
	}
	resp := &DataResponse{MapID: 5, Bytes: 11, EOF: true, Tag: 42, Transient: true}
	enc := resp.Encode()
	rgot, err := DecodeDataResponse(enc[:len(enc)-5])
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Tag != 0 || rgot.Transient || rgot.MapID != 5 || rgot.Bytes != 11 || !rgot.EOF {
		t.Fatalf("legacy response decode: %+v", rgot)
	}
	// A ring-era peer that predates the transient flag sends the tag but
	// no qualifier byte: Tag survives, Transient defaults to fatal.
	mgot, err := DecodeDataResponse(enc[:len(enc)-1])
	if err != nil {
		t.Fatal(err)
	}
	if mgot.Tag != 42 || mgot.Transient {
		t.Fatalf("tag-only response decode: %+v", mgot)
	}
}

func TestEncodeAppendReusesBuffer(t *testing.T) {
	scratch := make([]byte, 0, 128)
	r := &DataRequest{JobID: "j", Tag: 9}
	a := r.EncodeAppend(scratch[:0])
	b := r.EncodeAppend(scratch[:0])
	if &a[0] != &b[0] {
		t.Fatal("EncodeAppend did not reuse the scratch buffer")
	}
	got, err := DecodeDataRequest(b)
	if err != nil || got.Tag != 9 || got.JobID != "j" {
		t.Fatalf("round trip via scratch: %+v %v", got, err)
	}
}

func TestResponseEncodeAppendMatchesEncode(t *testing.T) {
	r := &DataResponse{
		MapID: 3, ReduceID: 1, Offset: 77, Bytes: 1024, Records: 12,
		EOF: true, Err: "transient pressure", Transient: true, Tag: 5,
	}
	scratch := make([]byte, 0, 128)
	a := r.EncodeAppend(scratch[:0])
	b := r.EncodeAppend(scratch[:0])
	if &a[0] != &b[0] {
		t.Fatal("EncodeAppend did not reuse the scratch buffer")
	}
	if !bytes.Equal(a, r.Encode()) {
		t.Fatal("EncodeAppend bytes diverge from Encode")
	}
	got, err := DecodeDataResponse(a)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := DecodeDataRequest(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeDataResponse(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeReadManifest(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeLeaseRelease(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func manifestsEqual(a, b *ReadManifest) bool {
	if a.MapID != b.MapID || a.ReduceID != b.ReduceID || a.Offset != b.Offset ||
		a.Tag != b.Tag || a.LeaseID != b.LeaseID || a.RKey != b.RKey || len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		ca, cb := &a.Chunks[i], &b.Chunks[i]
		if ca.Offset != cb.Offset || ca.Bytes != cb.Bytes || ca.Records != cb.Records ||
			ca.EOF != cb.EOF || len(ca.Ranges) != len(cb.Ranges) {
			return false
		}
		for j := range ca.Ranges {
			if ca.Ranges[j] != cb.Ranges[j] {
				return false
			}
		}
	}
	return true
}

func sampleManifest() *ReadManifest {
	return &ReadManifest{
		MapID: 7, ReduceID: 3, Offset: 4096, Tag: 5, LeaseID: 0xfeedface, RKey: 99,
		Chunks: []ReadChunk{
			{Offset: 4096, Bytes: 32 << 10, Records: 400, Ranges: []ReadRange{
				{Addr: 0x10000, Len: 32 << 10},
			}},
			{Offset: 4096 + 32<<10, Bytes: 40000, Records: 500, EOF: true, Ranges: []ReadRange{
				{Addr: 0x18000, Len: 32 << 10},
				{Addr: 0x20000, Len: 40000 - 32<<10},
			}},
			{Offset: 99, Bytes: 0, EOF: true}, // empty-partition chunk, no ranges
		},
	}
}

func TestReadManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	enc := m.Encode()
	if len(enc) != m.EncodedSize() {
		t.Fatalf("EncodedSize %d, encoded %d bytes", m.EncodedSize(), len(enc))
	}
	got, err := DecodeReadManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !manifestsEqual(got, m) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	// Trailing bytes past the declared chunks are a future tail extension:
	// today's decoder must ignore them.
	ext, err := DecodeReadManifest(append(enc, 0xaa, 0xbb))
	if err != nil {
		t.Fatal(err)
	}
	if !manifestsEqual(ext, m) {
		t.Fatalf("tail-extended decode diverged: %+v", ext)
	}
}

func TestReadManifestTruncated(t *testing.T) {
	enc := sampleManifest().Encode()
	// Every truncation of a manifest with chunks must error: the chunk
	// list is length-prefixed, so a cut anywhere inside it is detectable.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeReadManifest(enc[:i]); err == nil {
			t.Fatalf("truncated manifest of %d/%d bytes accepted", i, len(enc))
		}
	}
	if _, err := DecodeReadManifest((&DataRequest{JobID: "j"}).Encode()); err == nil {
		t.Fatal("request decoded as manifest")
	}
}

func TestLeaseReleaseRoundTrip(t *testing.T) {
	l := &LeaseRelease{LeaseID: 1<<63 + 12345}
	got, err := DecodeLeaseRelease(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *l {
		t.Fatalf("round trip: %+v != %+v", got, l)
	}
	if _, err := DecodeLeaseRelease(l.Encode()[:8]); err == nil {
		t.Fatal("truncated release accepted")
	}
}

// frameOf is the batch framing written out by hand: the oracle the
// builder and SplitBatch are held to.
func frameOf(msgs ...[]byte) []byte {
	if len(msgs) == 1 {
		return msgs[0]
	}
	out := []byte{TypeBatch}
	for _, m := range msgs {
		out = append(out, byte(len(m)), byte(len(m)>>8))
		out = append(out, m...)
	}
	return out
}

// TestBatchOfOneIsBare: one message framed as a batch goes out exactly as
// it would alone, so peers and codecs that know no batches never see one.
func TestBatchOfOneIsBare(t *testing.T) {
	req := &DataRequest{JobID: "job_1", MapID: 3, Offset: 4096, RKey: 7, Tag: 9, Flags: FlagFetchRead}
	resp := &DataResponse{MapID: 3, Bytes: 100, Records: 2, EOF: true, Err: "x", Tag: 9}
	man := sampleManifest()
	for _, tc := range []struct {
		name string
		add  func(*Batch)
		bare []byte
	}{
		{"request", func(b *Batch) { b.AddRequest(req) }, req.Encode()},
		{"response", func(b *Batch) { b.AddResponse(resp) }, resp.Encode()},
		{"manifest", func(b *Batch) { b.AddManifest(man) }, man.Encode()},
	} {
		var b Batch
		b.Reset(nil)
		tc.add(&b)
		frame, start := b.Frame()
		if !bytes.Equal(frame, tc.bare) {
			t.Fatalf("%s: batch of one = %x, bare message %x", tc.name, frame, tc.bare)
		}
		if start != 3 {
			t.Fatalf("%s: bare message starts at %d, want 3 (type byte and prefix skipped)", tc.name, start)
		}
		msgs, err := SplitBatch(frame, nil)
		if err != nil || len(msgs) != 1 || !bytes.Equal(msgs[0], frame) {
			t.Fatalf("%s: split of a bare message = %x, %v", tc.name, msgs, err)
		}
	}
	if req.EncodedSize() != len(req.Encode()) || resp.EncodedSize() != len(resp.Encode()) {
		t.Fatalf("EncodedSize: request %d/%d, response %d/%d",
			req.EncodedSize(), len(req.Encode()), resp.EncodedSize(), len(resp.Encode()))
	}
}

// TestBatchBuildsInPlace: a batch built in a buffer with room for it is
// encoded into that buffer, frames its messages as the oracle does, and
// splits back into them; a batch that would outgrow its limit says so.
func TestBatchBuildsInPlace(t *testing.T) {
	req := &DataRequest{JobID: "job_1", MapID: 1, Tag: 1}
	resp := &DataResponse{MapID: 2, Bytes: 10, Tag: 2}
	man := sampleManifest()
	buf := make([]byte, 0, 1024)
	var b Batch
	b.Reset(buf)
	b.AddRequest(req)
	b.AddResponse(resp)
	if !b.Fits(man.EncodedSize(), 1024) {
		t.Fatal("a manifest that fits was refused")
	}
	b.AddManifest(man)
	frame, start := b.Frame()
	if start != 0 || b.Count() != 3 || &frame[0] != &buf[:1][0] {
		t.Fatalf("frame of %d built at %d, in place %v", b.Count(), start, &frame[0] == &buf[:1][0])
	}
	want := frameOf(req.Encode(), resp.Encode(), man.Encode())
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame = %x, want %x", frame, want)
	}
	if b.Fits(1024-len(frame)-1, 1024) {
		t.Fatal("a message that overflows the limit was said to fit")
	}
	msgs, err := SplitBatch(frame, nil)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("split = %d messages, %v", len(msgs), err)
	}
	if got, err := DecodeDataRequest(msgs[0]); err != nil || *got != *req {
		t.Fatalf("request: %+v %v", got, err)
	}
	if got, err := DecodeDataResponse(msgs[1]); err != nil || *got != *resp {
		t.Fatalf("response: %+v %v", got, err)
	}
	if got, err := DecodeReadManifest(msgs[2]); err != nil || !manifestsEqual(got, man) {
		t.Fatalf("manifest: %+v %v", got, err)
	}
	b.Reset(buf)
	if frame, _ := b.Frame(); frame != nil || b.Count() != 0 {
		t.Fatalf("reset batch frames %x", frame)
	}
}

// TestSplitBatchRejects: every malformed batch is an error and yields no
// message, whatever dst already held.
func TestSplitBatchRejects(t *testing.T) {
	msg := (&DataResponse{Tag: 1}).Encode()
	two := frameOf(msg, msg)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty batch", []byte{TypeBatch}},
		{"batch of one", append([]byte{TypeBatch, byte(len(msg)), 0}, msg...)},
		{"truncated prefix", append(append([]byte{}, two...), 1)},
		{"truncated message", two[:len(two)-1]},
		{"length past the end", append([]byte{TypeBatch, 0xff, 0xff}, msg...)},
		{"empty message", append(append([]byte{}, two...), 0, 0)},
		{"nested batch", frameOf(msg, two)},
	} {
		dst := [][]byte{[]byte("kept")}
		got, err := SplitBatch(tc.frame, dst)
		if !errors.Is(err, ErrBadBatch) {
			t.Fatalf("%s: err = %v, want ErrBadBatch", tc.name, err)
		}
		if len(got) != 1 {
			t.Fatalf("%s: %d messages returned with the error", tc.name, len(got)-1)
		}
	}
}
