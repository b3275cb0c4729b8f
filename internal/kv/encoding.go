package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Encoding errors.
var (
	ErrCorrupt     = errors.New("kv: corrupt record stream")
	ErrBadChecksum = errors.New("kv: run checksum mismatch")
)

// MaxRecordLen bounds a single key or value length to guard decoders
// against corrupt length prefixes. Sort's combined kv length is at most
// 20,000 bytes (paper §IV-C); we leave generous headroom.
const MaxRecordLen = 64 << 20

// AppendRecord appends the wire encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Key...)
	dst = append(dst, r.Value...)
	return dst
}

// DecodeRecord decodes one record from b, returning the record and the
// number of bytes consumed. The record aliases b.
func DecodeRecord(b []byte) (Record, int, error) {
	kl, n1 := binary.Uvarint(b)
	if n1 <= 0 || kl > MaxRecordLen {
		return Record{}, 0, ErrCorrupt
	}
	vl, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 || vl > MaxRecordLen {
		return Record{}, 0, ErrCorrupt
	}
	off := n1 + n2
	if uint64(len(b)-off) < kl+vl {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{Key: b[off : off+int(kl)], Value: b[off+int(kl) : off+int(kl)+int(vl)]}
	return r, off + int(kl) + int(vl), nil
}

// prefetchNext starts loading the first two 64-byte cache lines of b,
// where the record after the one just decoded begins, without waiting for
// them. A merge comes back to a source only after every other source had
// a turn, so by then that record — header, key and, for short records, its
// value — is in cache, and neither the merge's decode nor the record's
// consumer waits for memory (DESIGN.md D27).
func prefetchNext(b []byte) {
	if len(b) > 0 {
		prefetch(&b[0])
		if len(b) > 64 {
			prefetch(&b[64])
		}
	}
}

// EncodeAll encodes recs back to back into a fresh buffer.
func EncodeAll(recs []Record) []byte {
	n := 0
	for _, r := range recs {
		n += r.EncodedLen()
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

// DecodeAll decodes every record in b. Records alias b.
func DecodeAll(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		r, n, err := DecodeRecord(b)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
		b = b[n:]
	}
	return recs, nil
}

// BufferIterator iterates over records encoded back to back in a byte
// buffer, e.g. one shuffle packet. Records alias the buffer.
type BufferIterator struct {
	buf []byte
	cur Record
	err error
}

// NewBufferIterator returns an iterator over the records encoded in buf.
func NewBufferIterator(buf []byte) *BufferIterator { return &BufferIterator{buf: buf} }

// Reset starts the iterator over buf, as NewBufferIterator(buf) would, so
// that a consumer walking one buffer after another keeps one iterator.
func (it *BufferIterator) Reset(buf []byte) { *it = BufferIterator{buf: buf} }

// Next decodes the next record.
func (it *BufferIterator) Next() bool {
	if it.err != nil || len(it.buf) == 0 {
		return false
	}
	r, n, err := DecodeRecord(it.buf)
	if err != nil {
		it.err = err
		return false
	}
	it.cur = r
	it.buf = it.buf[n:]
	prefetchNext(it.buf)
	return true
}

// Record returns the current record.
func (it *BufferIterator) Record() Record { return it.cur }

// Err returns the first decode error, if any.
func (it *BufferIterator) Err() error { return it.err }

// Sorted-run file format (IFile equivalent):
//
//	magic "RMR1" | records... | recordCount(le uint64) | crc32(le uint32)
//
// The CRC covers the record bytes only, so a writer can stream records and
// emit the checksum at Close.

var runMagic = [4]byte{'R', 'M', 'R', '1'}

// RunWriter writes a sorted run. The caller is responsible for feeding
// records in sorted order; Write verifies ordering when a comparator is
// installed via CheckOrder.
//
// Records are encoded straight into the writer's own buffer, which is
// handed to the underlying io.Writer a block at a time and checksummed
// once per block — never a record at a time.
type RunWriter struct {
	w io.Writer
	// buf holds encoded bytes not yet written: the magic at first, then
	// whole records. body is where its not-yet-checksummed record bytes
	// start (past the magic in the first block, 0 afterwards).
	buf     []byte
	body    int
	crc     uint32
	count   uint64
	bytes   uint64
	cmp     Comparator
	prevKey []byte
	err     error // first error from w, latched
	closed  bool
}

// runWriterBlock is how much a RunWriter buffers before it writes. A
// record that does not fit an empty block grows the buffer to its size.
const runWriterBlock = 64 << 10

// NewRunWriter returns a RunWriter emitting to w. The record count is
// written as a trailer alongside the CRC at Close, so the header needs no
// backpatching.
func NewRunWriter(w io.Writer) *RunWriter {
	// Room for the 12-byte trailer too, so Close appends in place.
	buf := make([]byte, 0, runWriterBlock+12)
	return &RunWriter{w: w, buf: append(buf, runMagic[:]...), body: len(runMagic)}
}

// CheckOrder makes subsequent Writes verify non-decreasing key order under
// cmp, returning ErrCorrupt on violation. This catches sorter bugs at the
// spill boundary instead of deep inside a merge.
func (rw *RunWriter) CheckOrder(cmp Comparator) { rw.cmp = cmp }

// Write appends one record to the run. After the underlying writer has
// failed, every Write and Close returns that first error.
func (rw *RunWriter) Write(r Record) error {
	if rw.closed {
		return errors.New("kv: write to closed RunWriter")
	}
	if rw.err != nil {
		return rw.err
	}
	if rw.cmp != nil {
		if rw.count > 0 && rw.cmp(rw.prevKey, r.Key) > 0 {
			return fmt.Errorf("%w: unsorted write (%q after %q)", ErrCorrupt, r.Key, rw.prevKey)
		}
		rw.prevKey = append(rw.prevKey[:0], r.Key...)
	}
	n := r.EncodedLen()
	if len(rw.buf)+n > runWriterBlock && len(rw.buf) > 0 {
		if err := rw.flush(); err != nil {
			return err
		}
	}
	rw.buf = AppendRecord(rw.buf, r)
	rw.count++
	rw.bytes += uint64(n)
	return nil
}

// flush checksums the buffered record bytes and writes the buffer out.
func (rw *RunWriter) flush() error {
	rw.crc = crc32.Update(rw.crc, crc32.IEEETable, rw.buf[rw.body:])
	_, rw.err = rw.w.Write(rw.buf)
	rw.buf, rw.body = rw.buf[:0], 0
	return rw.err
}

// Count returns the number of records written so far.
func (rw *RunWriter) Count() uint64 { return rw.count }

// Bytes returns the number of record payload bytes written so far.
func (rw *RunWriter) Bytes() uint64 { return rw.bytes }

// Close writes the trailer (record count + CRC) and flushes.
func (rw *RunWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if rw.err != nil {
		return rw.err
	}
	rw.crc = crc32.Update(rw.crc, crc32.IEEETable, rw.buf[rw.body:])
	rw.buf = binary.LittleEndian.AppendUint64(rw.buf, rw.count)
	rw.buf = binary.LittleEndian.AppendUint32(rw.buf, rw.crc)
	_, rw.err = rw.w.Write(rw.buf)
	rw.buf = nil
	return rw.err
}

// RunReader reads a sorted run produced by RunWriter from an in-memory
// buffer (runs are shuffled and cached as byte slices throughout rdmamr).
type RunReader struct {
	body    []byte // record bytes
	count   uint64
	read    uint64
	cur     Record
	err     error
	checked bool
	crcWant uint32
}

// NewRunReader validates the framing of buf and returns a reader. The CRC
// is verified lazily when the final record has been consumed, so large runs
// do not pay two passes.
func NewRunReader(buf []byte) (*RunReader, error) {
	if len(buf) < len(runMagic)+12 {
		return nil, ErrCorrupt
	}
	if !equal4(buf[:4], runMagic) {
		return nil, ErrCorrupt
	}
	trailer := buf[len(buf)-12:]
	count := binary.LittleEndian.Uint64(trailer[0:8])
	crc := binary.LittleEndian.Uint32(trailer[8:12])
	return &RunReader{
		body:    buf[4 : len(buf)-12],
		count:   count,
		crcWant: crc,
	}, nil
}

func equal4(b []byte, m [4]byte) bool {
	return b[0] == m[0] && b[1] == m[1] && b[2] == m[2] && b[3] == m[3]
}

// Count returns the total number of records in the run.
func (rr *RunReader) Count() uint64 { return rr.count }

// Remaining returns how many records have not yet been consumed.
func (rr *RunReader) Remaining() uint64 { return rr.count - rr.read }

// Next decodes the next record. Records alias the run buffer.
func (rr *RunReader) Next() bool {
	if rr.err != nil || rr.read >= rr.count {
		return false
	}
	r, n, err := DecodeRecord(rr.body)
	if err != nil {
		rr.err = err
		return false
	}
	rr.cur = r
	rr.body = rr.body[n:]
	prefetchNext(rr.body)
	rr.read++
	if rr.read == rr.count && !rr.checked {
		rr.checked = true
		if len(rr.body) != 0 {
			rr.err = ErrCorrupt
			return false
		}
	}
	return true
}

// Record returns the current record.
func (rr *RunReader) Record() Record { return rr.cur }

// Err returns the first error encountered.
func (rr *RunReader) Err() error { return rr.err }

// VerifyChecksum re-walks the full run and checks the trailer CRC. It is
// independent of iteration state and used by tests and by the DataNode
// block scanner.
func VerifyChecksum(buf []byte) error {
	rr, err := NewRunReader(buf)
	if err != nil {
		return err
	}
	body := buf[4 : len(buf)-12]
	crc := crc32.ChecksumIEEE(body)
	if crc != rr.crcWant {
		return ErrBadChecksum
	}
	return nil
}

// WriteRun encodes recs (which must already be sorted if order matters
// downstream) as a complete run in one exactly-sized buffer and returns
// it.
func WriteRun(recs []Record) []byte {
	body := 0
	for _, r := range recs {
		body += r.EncodedLen()
	}
	buf := newRunBuffer(body)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return sealRun(buf, uint64(len(recs)))
}

// newRunBuffer starts a run whose record body will be bodyLen bytes: the
// magic, with capacity for the body and the 12-byte trailer.
func newRunBuffer(bodyLen int) []byte {
	return append(make([]byte, 0, len(runMagic)+bodyLen+12), runMagic[:]...)
}

// sealRun appends the trailer (record count + CRC of the body) to a run
// that starts with the magic and has room for the trailer, as one built on
// newRunBuffer does.
func sealRun(buf []byte, count uint64) []byte {
	crc := crc32.ChecksumIEEE(buf[len(runMagic):])
	buf = binary.LittleEndian.AppendUint64(buf, count)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// RunBody returns the record-body region and record count of an encoded
// run, without copying. Shuffle responders use this to slice whole
// records out of a cached run at arbitrary record boundaries.
func RunBody(run []byte) (body []byte, count uint64, err error) {
	start, end, count, err := RunBodySpan(run)
	if err != nil {
		return nil, 0, err
	}
	return run[start:end], count, nil
}

// RunBodySpan returns the [start, end) byte range of the record body
// within an encoded run, plus the record count. Zero-copy responders
// need the positions — not just the subslice — because their
// scatter-gather entries address offsets into the memory region that
// was registered over the whole run.
// It checks the framing NewRunReader checks, reading the trailer in
// place: a responder calls it once per request.
func RunBodySpan(run []byte) (start, end int, count uint64, err error) {
	if len(run) < len(runMagic)+12 || !equal4(run[:4], runMagic) {
		return 0, 0, 0, ErrCorrupt
	}
	end = len(run) - 12
	return len(runMagic), end, binary.LittleEndian.Uint64(run[end:]), nil
}

// NextRecordSize returns the encoded size of the record starting at the
// beginning of body, so packers can make size-aware fill decisions
// without materializing the record.
func NextRecordSize(body []byte) (int, error) {
	_, n, err := DecodeRecord(body)
	return n, err
}
