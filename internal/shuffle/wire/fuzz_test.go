package wire

import (
	"bytes"
	"testing"
)

// The decoders face bytes straight off the fabric: a buggy or hostile
// peer must produce an error, never a panic or an over-allocation. The
// fuzz targets assert the decode-re-encode-decode fixpoint on every
// input that decodes, and seed the corpus with valid frames, truncations
// at interesting boundaries, and corrupt length prefixes.

func fuzzSeedsRequest() [][]byte {
	full := (&DataRequest{
		JobID: "job_202608", MapID: 7, ReduceID: 3, Offset: 1 << 33,
		MaxBytes: 128 << 10, MaxRecords: 1024, RemoteAddr: 0xdeadbeef, RKey: 99, Tag: 5,
	}).Encode()
	oversizedStr := []byte{TypeDataRequest, 0xff, 0xff} // 65535-byte JobID, absent
	return [][]byte{
		full,
		full[:len(full)-4], // legacy, no tag
		full[:9],           // mid-header truncation
		oversizedStr,
		{TypeDataResponse}, // wrong type
		{},
	}
}

func FuzzDecodeDataRequest(f *testing.F) {
	for _, s := range fuzzSeedsRequest() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeDataRequest(b)
		if err != nil {
			return
		}
		// Whatever decoded must survive a re-encode round trip exactly.
		again, err := DecodeDataRequest(r.Encode())
		if err != nil {
			t.Fatalf("re-decode of valid request failed: %v", err)
		}
		if *again != *r {
			t.Fatalf("request not a fixpoint: %+v vs %+v", r, again)
		}
		// Decoding into a value that held another request (a responder
		// reuses one per connection) gives the same request.
		reused := DataRequest{JobID: "job_other", Tag: 9, Flags: FlagFetchRead}
		if err := reused.Decode(b); err != nil || reused != *r {
			t.Fatalf("decode into a reused value = %+v (%v), want %+v", reused, err, r)
		}
	})
}

func fuzzSeedsResponse() [][]byte {
	full := (&DataResponse{
		MapID: 2, ReduceID: 9, Offset: 4096, Bytes: 777, Records: 12,
		EOF: true, Err: "tracker: gone", RemoteAddr: 42, RKey: 7, Tag: 3,
	}).Encode()
	// Err string length prefix claiming far more bytes than present.
	lying := append([]byte{}, full[:26]...)
	lying = append(lying, 0xff, 0xff)
	return [][]byte{
		full,
		full[:len(full)-4], // legacy, no tag
		full[:12],
		lying,
		{TypeDataRequest},
		{},
	}
}

func FuzzDecodeDataResponse(f *testing.F) {
	for _, s := range fuzzSeedsResponse() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeDataResponse(b)
		if err != nil {
			return
		}
		again, err := DecodeDataResponse(r.Encode())
		if err != nil {
			t.Fatalf("re-decode of valid response failed: %v", err)
		}
		if *again != *r {
			t.Fatalf("response not a fixpoint: %+v vs %+v", r, again)
		}
		reused := DataResponse{Err: "stale", Tag: 9, Transient: true}
		if err := reused.Decode(b); err != nil || reused != *r {
			t.Fatalf("decode into a reused value = %+v (%v), want %+v", reused, err, r)
		}
	})
}

func fuzzSeedsManifest() [][]byte {
	full := sampleManifest().Encode()
	// Chunk count prefix claiming more chunks than are present.
	lying := append([]byte{}, full...)
	lying[33] = 0xff
	return [][]byte{
		full,
		full[:manifestBaseSize], // header only, chunk list missing entirely
		full[:len(full)-5],      // cut inside the final chunk's ranges
		full[:12],               // mid-header truncation
		lying,
		{TypeDataResponse}, // wrong type
		{},
	}
}

func FuzzDecodeReadManifest(f *testing.F) {
	for _, s := range fuzzSeedsManifest() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeReadManifest(b)
		if err != nil {
			return
		}
		// The chunk list is length-prefixed: whatever decoded must account
		// for every declared chunk and range, and survive a re-encode
		// round trip exactly.
		again, err := DecodeReadManifest(m.Encode())
		if err != nil {
			t.Fatalf("re-decode of valid manifest failed: %v", err)
		}
		if !manifestsEqual(again, m) {
			t.Fatalf("manifest not a fixpoint: %+v vs %+v", m, again)
		}
		for i := range m.Chunks {
			if len(m.Chunks[i].Ranges) > 255 {
				t.Fatalf("chunk %d decoded %d ranges past the uint8 prefix", i, len(m.Chunks[i].Ranges))
			}
		}
	})
}

func FuzzDecodeLeaseRelease(f *testing.F) {
	f.Add((&LeaseRelease{LeaseID: 7}).Encode())
	f.Add([]byte{TypeLeaseRelease})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLeaseRelease(b)
		if err != nil {
			return
		}
		again, err := DecodeLeaseRelease(l.Encode())
		if err != nil || *again != *l {
			t.Fatalf("lease release not a fixpoint: %+v vs %+v (%v)", l, again, err)
		}
	})
}

// FuzzTakeString exercises the shared length-prefixed string reader with
// adversarial prefixes: it must never slice past the buffer.
func FuzzTakeString(f *testing.F) {
	f.Add([]byte{2, 0, 'h', 'i', 'x'})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, rest, err := takeString(b)
		if err != nil {
			return
		}
		if len(s)+len(rest)+2 != len(b) {
			t.Fatalf("takeString accounting: %d + %d + 2 != %d", len(s), len(rest), len(b))
		}
		if !bytes.HasSuffix(b, rest) {
			t.Fatal("rest is not a suffix of the input")
		}
	})
}

// FuzzSplitBatch: any frame either splits into messages that frame back
// to exactly the input, none of them a batch, or is an error that yields
// no message.
func FuzzSplitBatch(f *testing.F) {
	req := (&DataRequest{JobID: "job_202608", Tag: 5}).Encode()
	resp := (&DataResponse{Tag: 3, Bytes: 7}).Encode()
	two := frameOf(req, resp)
	for _, s := range [][]byte{
		two,
		frameOf(resp, sampleManifest().Encode(), req),
		req,                  // bare
		two[:len(two)-3],     // truncated message
		frameOf(req, two),    // nested
		{TypeBatch, 1, 0, 1}, // batch of one
		{TypeBatch},
		{},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msgs, err := SplitBatch(b, nil)
		if err != nil {
			if len(msgs) != 0 {
				t.Fatalf("error %v returned with %d messages", err, len(msgs))
			}
			return
		}
		if len(msgs) > 1 || (len(b) > 0 && b[0] == TypeBatch) {
			for i, m := range msgs {
				if len(m) == 0 || m[0] == TypeBatch {
					t.Fatalf("message %d of %d is empty or a nested batch: %x", i, len(msgs), m)
				}
			}
		}
		if again := frameOf(msgs...); !bytes.Equal(again, b) {
			t.Fatalf("re-framed %d messages = %x, input %x", len(msgs), again, b)
		}
	})
}
