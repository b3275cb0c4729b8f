// Package wire defines the control-message formats the RDMA shuffle
// engines exchange over UCR end-points. As the paper specifies, "each
// request and response messages consist of various identification and
// control parameters such as map id, reduce id, job id, number of key
// value pairs sent etc." (§III-B.1). Bulk data never travels in these
// messages — the responder RDMA-writes it directly into the copier's
// registered buffer; these headers carry only identification, addressing,
// and accounting.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type tags.
const (
	TypeDataRequest  = 0x01
	TypeDataResponse = 0x02
	// TypeReadManifest answers a read-capable DataRequest with descriptor
	// ranges the copier RDMA-READs itself (the one-sided fetch arm).
	TypeReadManifest = 0x03
	// TypeLeaseRelease returns a manifest's lease early, letting the
	// responder unpin the cache body before the deadline expires.
	TypeLeaseRelease = 0x04
	// TypeBatch frames several messages as one SEND: the type byte, then
	// (uint16 length, message) pairs. A batch holds at least two
	// messages — a single one travels bare — and never another batch.
	TypeBatch = 0x05
)

// DataRequest flag bits (the Flags tail extension).
const (
	// FlagFetchRead advertises that the requester understands
	// ReadManifest responses and can fetch payloads by one-sided RDMA
	// READ. Responders never send a manifest to a peer that did not set
	// it, so pre-READ copiers keep receiving plain DataResponses.
	FlagFetchRead uint32 = 1 << 0
)

// Errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrBadType   = errors.New("wire: unexpected message type")
	ErrBadBatch  = errors.New("wire: malformed batch")
)

// DataRequest asks a TaskTracker for the next packet of one map output
// partition. Offset is a byte offset into the partition's record body,
// always on a record boundary; MaxBytes is the copier's registered buffer
// capacity; MaxRecords is the mapred.rdma.kvpairs.per.packet tunable.
// RemoteAddr/RKey address the copier's buffer for the RDMA write.
//
// Tag identifies the copier-side bounce-buffer slot this request was
// issued from; the responder echoes it so responses for different slots
// on the same connection can complete out of order. The field rides at
// the tail of the encoding and decoders tolerate its absence (Tag 0), so
// peers predating the slot ring still interoperate.
type DataRequest struct {
	JobID      string
	MapID      int32
	ReduceID   int32
	Offset     int64
	MaxBytes   int32
	MaxRecords int32
	RemoteAddr uint64
	RKey       uint32
	Tag        uint32
	// Flags carries capability bits (FlagFetchRead). Tail extension:
	// decoders default to 0 for messages from older peers, which reads as
	// "no extra capabilities" — exactly what an old peer has.
	Flags uint32
}

// Encode serializes the request.
func (r *DataRequest) Encode() []byte {
	return r.EncodeAppend(make([]byte, 0, r.EncodedSize()))
}

// EncodedSize returns the exact encoded length.
func (r *DataRequest) EncodedSize() int {
	return 1 + 2 + len(r.JobID) + 4 + 4 + 8 + 4 + 4 + 8 + 4 + 4 + 4
}

// EncodeAppend serializes the request into buf (reusing its capacity) and
// returns the extended slice. Hot senders keep a scratch buffer so the
// request pump does not allocate per chunk.
func (r *DataRequest) EncodeAppend(buf []byte) []byte {
	buf = append(buf, TypeDataRequest)
	buf = appendString(buf, r.JobID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MapID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ReduceID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxRecords))
	buf = binary.LittleEndian.AppendUint64(buf, r.RemoteAddr)
	buf = binary.LittleEndian.AppendUint32(buf, r.RKey)
	buf = binary.LittleEndian.AppendUint32(buf, r.Tag)
	buf = binary.LittleEndian.AppendUint32(buf, r.Flags)
	return buf
}

// DecodeDataRequest parses a request message.
func DecodeDataRequest(b []byte) (*DataRequest, error) {
	r := &DataRequest{}
	if err := r.Decode(b); err != nil {
		return nil, err
	}
	return r, nil
}

// Decode parses a request message into r, overwriting every field. A
// responder decodes each request of a connection into one value: while
// the job ID on the wire equals r.JobID the string is kept, not copied
// again. On error r is left in an unspecified state.
func (r *DataRequest) Decode(b []byte) error {
	if len(b) < 1 || b[0] != TypeDataRequest {
		return ErrBadType
	}
	jobID, b, err := takeBytes(b[1:])
	if err != nil {
		return err
	}
	if len(b) < 4+4+8+4+4+8+4 {
		return ErrTruncated
	}
	if string(jobID) != r.JobID {
		r.JobID = string(jobID)
	}
	r.MapID = int32(binary.LittleEndian.Uint32(b[0:4]))
	r.ReduceID = int32(binary.LittleEndian.Uint32(b[4:8]))
	r.Offset = int64(binary.LittleEndian.Uint64(b[8:16]))
	r.MaxBytes = int32(binary.LittleEndian.Uint32(b[16:20]))
	r.MaxRecords = int32(binary.LittleEndian.Uint32(b[20:24]))
	r.RemoteAddr = binary.LittleEndian.Uint64(b[24:32])
	r.RKey = binary.LittleEndian.Uint32(b[32:36])
	// Tag and Flags are tail extensions: absent in messages from older
	// peers (Tag 0, Flags 0).
	r.Tag, r.Flags = 0, 0
	if len(b) >= 40 {
		r.Tag = binary.LittleEndian.Uint32(b[36:40])
	}
	if len(b) >= 44 {
		r.Flags = binary.LittleEndian.Uint32(b[40:44])
	}
	return nil
}

// DataResponse acknowledges one packet: Bytes of payload holding Records
// whole key-value pairs were RDMA-written at the requested address. EOF
// marks the final packet of the partition. A non-empty Err reports a
// serving failure (no payload was written).
type DataResponse struct {
	MapID    int32
	ReduceID int32
	Offset   int64 // echo of the request offset
	Bytes    int32
	Records  int32
	EOF      bool
	Err      string
	// RemoteAddr/RKey advertise a server-side staging region for
	// read-based engines (Hadoop-A's levitated merge RDMA-READs the
	// payload from here). Write-based engines leave them zero.
	RemoteAddr uint64
	RKey       uint32
	// Tag echoes the request's slot tag so pipelined copiers can match a
	// response to the bounce-buffer slot it was written into. Tail
	// extension: decoders accept messages without it (Tag 0).
	Tag uint32
	// Transient qualifies a non-empty Err: true means the serving failure
	// was environmental (RDMA write failed, staging pressure) and the
	// same request may succeed if re-issued; false means the data itself
	// is unavailable (map output missing) and the requester should
	// escalate to map re-execution. Tail extension: decoders default to
	// false (pre-robustness peers only reported fatal errors).
	Transient bool
}

// Encode serializes the response.
func (r *DataResponse) Encode() []byte {
	return r.EncodeAppend(make([]byte, 0, r.EncodedSize()))
}

// EncodedSize returns the exact encoded length.
func (r *DataResponse) EncodedSize() int {
	return 1 + 4 + 4 + 8 + 4 + 4 + 1 + 2 + len(r.Err) + 8 + 4 + 4 + 1
}

// EncodeAppend serializes the response into buf (reusing its capacity)
// and returns the extended slice. Zero-copy responders encode straight
// into a pooled registered header region so the header send allocates
// nothing.
func (r *DataResponse) EncodeAppend(buf []byte) []byte {
	buf = append(buf, TypeDataResponse)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MapID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ReduceID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Bytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Records))
	if r.EOF {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, r.Err)
	buf = binary.LittleEndian.AppendUint64(buf, r.RemoteAddr)
	buf = binary.LittleEndian.AppendUint32(buf, r.RKey)
	buf = binary.LittleEndian.AppendUint32(buf, r.Tag)
	if r.Transient {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeDataResponse parses a response message.
func DecodeDataResponse(b []byte) (*DataResponse, error) {
	r := &DataResponse{}
	if err := r.Decode(b); err != nil {
		return nil, err
	}
	return r, nil
}

// Decode parses a response message into r, overwriting every field, so a
// receiver can decode into a value it keeps. Nothing in r aliases b. On
// error r is left in an unspecified state.
func (r *DataResponse) Decode(b []byte) error {
	if len(b) < 1 || b[0] != TypeDataResponse {
		return ErrBadType
	}
	b = b[1:]
	if len(b) < 4+4+8+4+4+1 {
		return ErrTruncated
	}
	errStr, rest, err := takeString(b[25:])
	if err != nil {
		return err
	}
	if len(rest) < 12 {
		return ErrTruncated
	}
	*r = DataResponse{
		MapID:      int32(binary.LittleEndian.Uint32(b[0:4])),
		ReduceID:   int32(binary.LittleEndian.Uint32(b[4:8])),
		Offset:     int64(binary.LittleEndian.Uint64(b[8:16])),
		Bytes:      int32(binary.LittleEndian.Uint32(b[16:20])),
		Records:    int32(binary.LittleEndian.Uint32(b[20:24])),
		EOF:        b[24] == 1,
		Err:        errStr,
		RemoteAddr: binary.LittleEndian.Uint64(rest[0:8]),
		RKey:       binary.LittleEndian.Uint32(rest[8:12]),
	}
	// Tag and Transient are tail extensions: absent in messages from
	// older peers (Tag 0, Transient false).
	if len(rest) >= 16 {
		r.Tag = binary.LittleEndian.Uint32(rest[12:16])
	}
	if len(rest) >= 17 {
		r.Transient = rest[16] == 1
	}
	return nil
}

// ReadRange is one remote descriptor of a manifest chunk: Len bytes at
// virtual address Addr inside the region named by the manifest's RKey.
// A chunk may carry several ranges, each READ in turn, with remote-
// contiguous ones coalesced into one READ; the responder, whose cached
// runs are contiguous, sends one range per chunk.
type ReadRange struct {
	Addr uint64
	Len  int32
}

// ReadChunk is one packed shuffle chunk described (not carried) by a
// manifest: the same Offset/Bytes/Records/EOF accounting a DataResponse
// would report, plus the remote ranges holding the payload. The copier
// RDMA-READs the ranges into the bounce-buffer slot it would otherwise
// have advertised for an RDMA write.
type ReadChunk struct {
	Offset  int64
	Bytes   int32
	Records int32
	EOF     bool
	Ranges  []ReadRange
}

// ReadManifest answers one read-capable DataRequest with descriptors for
// MANY chunks, starting at the request's offset: one responder send then
// amortizes across every chunk the copier pulls by one-sided READ — the
// hot path has no per-chunk responder involvement at all. LeaseID names
// the pin the responder holds on the cache body; the copier releases it
// (TypeLeaseRelease) once the plan is consumed, or the responder's
// deadline expires it. Errors are never reported through a manifest: a
// request the responder cannot serve this way falls back to the ordinary
// DataResponse path, which owns error reporting.
type ReadManifest struct {
	MapID    int32
	ReduceID int32
	Offset   int64 // echo of the request offset (== Chunks[0].Offset)
	Tag      uint32
	LeaseID  uint64
	RKey     uint32
	Chunks   []ReadChunk
}

// Encode serializes the manifest.
func (m *ReadManifest) Encode() []byte {
	return m.EncodeAppend(make([]byte, 0, m.EncodedSize()))
}

// EncodedSize returns the exact encoded length (the responder packs
// manifests against its registered header region's capacity).
func (m *ReadManifest) EncodedSize() int {
	n := manifestBaseSize
	for i := range m.Chunks {
		n += chunkEncodedSize(&m.Chunks[i])
	}
	return n
}

const manifestBaseSize = 1 + 4 + 4 + 8 + 4 + 8 + 4 + 2

func chunkEncodedSize(c *ReadChunk) int { return 8 + 4 + 4 + 1 + 1 + 12*len(c.Ranges) }

// EncodeAppend serializes the manifest into buf (reusing its capacity) —
// the responder encodes straight into a pooled registered header region.
func (m *ReadManifest) EncodeAppend(buf []byte) []byte {
	buf = append(buf, TypeReadManifest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.MapID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ReduceID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, m.Tag)
	buf = binary.LittleEndian.AppendUint64(buf, m.LeaseID)
	buf = binary.LittleEndian.AppendUint32(buf, m.RKey)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Chunks)))
	for i := range m.Chunks {
		c := &m.Chunks[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Offset))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Bytes))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Records))
		if c.EOF {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = append(buf, byte(len(c.Ranges)))
		for _, rg := range c.Ranges {
			buf = binary.LittleEndian.AppendUint64(buf, rg.Addr)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rg.Len))
		}
	}
	return buf
}

// DecodeReadManifest parses a manifest. The chunk list is length-prefixed
// and fully validated (a truncated list is an error, not a shorter
// manifest); bytes past the declared chunks are ignored so future tail
// extensions decode on today's peers.
func DecodeReadManifest(b []byte) (*ReadManifest, error) {
	if len(b) < 1 || b[0] != TypeReadManifest {
		return nil, ErrBadType
	}
	if len(b) < manifestBaseSize {
		return nil, ErrTruncated
	}
	b = b[1:]
	m := &ReadManifest{}
	m.MapID = int32(binary.LittleEndian.Uint32(b[0:4]))
	m.ReduceID = int32(binary.LittleEndian.Uint32(b[4:8]))
	m.Offset = int64(binary.LittleEndian.Uint64(b[8:16]))
	m.Tag = binary.LittleEndian.Uint32(b[16:20])
	m.LeaseID = binary.LittleEndian.Uint64(b[20:28])
	m.RKey = binary.LittleEndian.Uint32(b[28:32])
	count := int(binary.LittleEndian.Uint16(b[32:34]))
	b = b[34:]
	if count > 0 {
		m.Chunks = make([]ReadChunk, 0, count)
	}
	for i := 0; i < count; i++ {
		if len(b) < 18 {
			return nil, fmt.Errorf("%w: chunk %d of %d", ErrTruncated, i, count)
		}
		c := ReadChunk{
			Offset:  int64(binary.LittleEndian.Uint64(b[0:8])),
			Bytes:   int32(binary.LittleEndian.Uint32(b[8:12])),
			Records: int32(binary.LittleEndian.Uint32(b[12:16])),
			EOF:     b[16] == 1,
		}
		nr := int(b[17])
		b = b[18:]
		if len(b) < 12*nr {
			return nil, fmt.Errorf("%w: %d ranges in %d bytes", ErrTruncated, nr, len(b))
		}
		if nr > 0 {
			c.Ranges = make([]ReadRange, 0, nr)
		}
		for j := 0; j < nr; j++ {
			c.Ranges = append(c.Ranges, ReadRange{
				Addr: binary.LittleEndian.Uint64(b[0:8]),
				Len:  int32(binary.LittleEndian.Uint32(b[8:12])),
			})
			b = b[12:]
		}
		m.Chunks = append(m.Chunks, c)
	}
	return m, nil
}

// LeaseRelease returns a manifest's lease: the copier consumed (or
// abandoned) the plan, so the responder can unpin the cache body now
// instead of waiting for the deadline. Best-effort — a release lost with
// its connection is covered by expiry.
type LeaseRelease struct {
	LeaseID uint64
}

// Encode serializes the release.
func (l *LeaseRelease) Encode() []byte {
	buf := make([]byte, 0, 9)
	buf = append(buf, TypeLeaseRelease)
	return binary.LittleEndian.AppendUint64(buf, l.LeaseID)
}

// DecodeLeaseRelease parses a release message (trailing bytes are
// tolerated for future tail extensions).
func DecodeLeaseRelease(b []byte) (*LeaseRelease, error) {
	if len(b) < 1 || b[0] != TypeLeaseRelease {
		return nil, ErrBadType
	}
	if len(b) < 9 {
		return nil, ErrTruncated
	}
	return &LeaseRelease{LeaseID: binary.LittleEndian.Uint64(b[1:9])}, nil
}

// Batch builds one TypeBatch frame in place: each message is encoded
// straight into the frame behind its length prefix, so a sender that
// builds in a registered region sends the frame without a copy. Frame
// returns a batch of one bare, byte-identical to sending the message
// alone. The zero Batch is ready after Reset.
type Batch struct {
	buf   []byte
	count int
}

// batchPrefix is the framing cost of one message inside a batch.
const batchPrefix = 2

// Reset empties the batch and builds the next frame in buf's storage; a
// nil buf keeps the batch's own, which grows as messages are added.
func (b *Batch) Reset(buf []byte) {
	if buf == nil {
		buf = b.buf
	}
	b.buf = append(buf[:0], TypeBatch)
	b.count = 0
}

// Count is the number of messages in the frame.
func (b *Batch) Count() int { return b.count }

// Cap is the capacity of the buffer the frame is built in.
func (b *Batch) Cap() int { return cap(b.buf) }

// Fits reports whether a message of n encoded bytes can join the frame
// without the frame outgrowing limit bytes.
func (b *Batch) Fits(n, limit int) bool { return len(b.buf)+batchPrefix+n <= limit }

// AddRequest appends a request to the frame.
func (b *Batch) AddRequest(r *DataRequest) { b.add(r.EncodeAppend(b.open())) }

// AddResponse appends a response header to the frame.
func (b *Batch) AddResponse(r *DataResponse) { b.add(r.EncodeAppend(b.open())) }

// AddManifest appends a manifest to the frame.
func (b *Batch) AddManifest(m *ReadManifest) { b.add(m.EncodeAppend(b.open())) }

// open reserves the next message's length prefix.
func (b *Batch) open() []byte { return append(b.buf, 0, 0) }

// add records the message just encoded behind the prefix open reserved.
func (b *Batch) add(buf []byte) {
	start := len(b.buf)
	binary.LittleEndian.PutUint16(buf[start:], uint16(len(buf)-start-batchPrefix))
	b.buf = buf
	b.count++
}

// Frame returns the bytes to send and their offset in the buffer the
// frame was built in: the whole frame, the bare message of a batch of
// one, or nil for an empty batch.
func (b *Batch) Frame() (frame []byte, start int) {
	switch b.count {
	case 0:
		return nil, 0
	case 1:
		start = 1 + batchPrefix
	}
	return b.buf[start:], start
}

// SplitBatch appends the messages frame carries to dst and returns it:
// frame itself when it is a bare message, otherwise each message of the
// batch, aliasing frame. A truncated batch, a batch of fewer than two
// messages, an empty message or a nested batch is ErrBadBatch.
func SplitBatch(frame []byte, dst [][]byte) ([][]byte, error) {
	if len(frame) == 0 || frame[0] != TypeBatch {
		return append(dst, frame), nil
	}
	first := len(dst)
	for rest := frame[1:]; len(rest) > 0; {
		if len(rest) < batchPrefix {
			return dst[:first], fmt.Errorf("%w: %d bytes left for a length prefix", ErrBadBatch, len(rest))
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[batchPrefix:]
		switch {
		case n == 0 || n > len(rest):
			return dst[:first], fmt.Errorf("%w: message of %d in %d bytes", ErrBadBatch, n, len(rest))
		case rest[0] == TypeBatch:
			return dst[:first], fmt.Errorf("%w: nested batch", ErrBadBatch)
		}
		dst = append(dst, rest[:n])
		rest = rest[n:]
	}
	if n := len(dst) - first; n < 2 {
		return dst[:first], fmt.Errorf("%w: batch of %d", ErrBadBatch, n)
	}
	return dst, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	s, rest, err := takeBytes(b)
	return string(s), rest, err
}

// takeBytes is takeString without the copy: the string's bytes alias b.
func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("%w: string of %d in %d bytes", ErrTruncated, n, len(b))
	}
	return b[:n], b[n:], nil
}
