package kv

import (
	"encoding/binary"
	"errors"
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
// number of bytes consumed. The record aliases b. Two one-byte lengths
// (below 0x80, as TeraSort's 10 and 90) skip the varint loop.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) >= 2 && (uint16(b[0])|uint16(b[1])<<8)&0x8080 == 0 {
		kl, end := 2+int(b[0]), 2+int(b[0])+int(b[1])
		if end > len(b) {
			return Record{}, 0, ErrCorrupt
		}
		return Record{Key: b[2:kl], Value: b[kl:end]}, end, nil
	}
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
func prefetchNext(b []byte) { Prefetch(b[:min(len(b), 128)]) }

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

// Reset starts the iterator over buf, so that a consumer walking one
// buffer after another keeps one iterator.
func (it *BufferIterator) Reset(buf []byte) { *it = BufferIterator{buf: buf} }

// Next decodes the next record.
func (it *BufferIterator) Next() bool { return it.NextInto(&it.cur) }

// NextInto is Next followed by Record, the record also written to *r.
func (it *BufferIterator) NextInto(r *Record) bool {
	if it.err != nil || len(it.buf) == 0 {
		return false
	}
	rec, n, err := DecodeRecord(it.buf)
	if err != nil {
		it.err = err
		return false
	}
	it.cur, *r = rec, rec
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
// records in sorted order.
//
// Records are encoded straight into the writer's own buffer, which is
// handed to the underlying io.Writer a block at a time and checksummed
// once per block — never a record at a time.
type RunWriter struct {
	w io.Writer
	// buf holds encoded bytes not yet written: the magic at first, then
	// whole records. body is where its not-yet-checksummed record bytes
	// start (past the magic in the first block, 0 afterwards).
	buf    []byte
	body   int
	crc    uint32
	count  uint64
	err    error // first error from w, latched
	closed bool
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

// Write appends one record to the run. After the underlying writer has
// failed, every Write and Close returns that first error.
func (rw *RunWriter) Write(r Record) error {
	if rw.closed {
		return errors.New("kv: write to closed RunWriter")
	}
	if rw.err != nil {
		return rw.err
	}
	n := r.EncodedLen()
	if len(rw.buf)+n > runWriterBlock && len(rw.buf) > 0 {
		if err := rw.flush(); err != nil {
			return err
		}
	}
	rw.buf = AppendRecord(rw.buf, r)
	rw.count++
	return nil
}

// flush checksums the buffered record bytes and writes the buffer out.
func (rw *RunWriter) flush() error {
	rw.crc = crc32.Update(rw.crc, crc32.IEEETable, rw.buf[rw.body:])
	_, rw.err = rw.w.Write(rw.buf)
	rw.buf, rw.body = rw.buf[:0], 0
	return rw.err
}

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
}

// NewRunReader validates the framing of buf and returns a reader. It does
// not check the trailer CRC: Next checks only that the body ends where the
// trailer's count does. A run read from HDFS (a job's input, through
// RunInput) was checked by the block CRC as its blocks were read, and a
// job's output is checked again by the RunScanner in workload.Validate.
// Nothing checks the runs read from memory or from a node's LocalStore,
// which keeps no CRC: the http shuffle's fetched segments and spills
// (its finalMerge) and every run MergeRuns folds, map-side spills
// included. ROADMAP item 6 settles which check each hop keeps.
func NewRunReader(buf []byte) (*RunReader, error) {
	if len(buf) < len(runMagic)+12 {
		return nil, ErrCorrupt
	}
	if [4]byte(buf) != runMagic {
		return nil, ErrCorrupt
	}
	trailer := buf[len(buf)-12:]
	count := binary.LittleEndian.Uint64(trailer)
	return &RunReader{body: buf[4 : len(buf)-12], count: count}, nil
}

// Next decodes the next record. Records alias the run buffer.
func (rr *RunReader) Next() bool { return rr.NextInto(&rr.cur) }

// NextInto is Next followed by Record, the record also written to *r.
func (rr *RunReader) NextInto(rec *Record) bool {
	if rr.err != nil {
		return false
	}
	if rr.read >= rr.count {
		if rr.count == 0 && len(rr.body) != 0 {
			rr.err = ErrCorrupt // a trailer counting no records under a body
		}
		return false
	}
	r, n, err := DecodeRecord(rr.body)
	if err != nil {
		rr.err = err
		return false
	}
	rr.cur, *rec = r, r
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

// VerifyChecksum checks a whole run held in one buffer: its framing, its
// trailer's CRC and record count, and that its body decodes. It is the
// one-chunk case of RunScanner, so the two cannot disagree.
func VerifyChecksum(buf []byte) error {
	s := NewRunScanner(int64(len(buf)))
	s.Feed(buf)
	for s.Next() {
	}
	if err := s.Close(); err != nil {
		return err
	}
	return s.Err()
}

// RunScanner checks a run that arrives in consecutive chunks, an HDFS
// file's blocks say, in one pass and without joining them: it decodes the
// records where they lie, updates the body CRC over each chunk as it is
// fed, and at Close checks the magic, the trailer's CRC and the trailer's
// record count. After each Feed, call Next until it returns false.
//
// A record aliases the chunk it lies in, or, when it straddles a chunk
// boundary, the carry buffer it was assembled in. There are two carry
// buffers, used in turn, so a record stays whole one behind: the previous
// record is intact while the current one is read (DESIGN.md D27), and the
// last one stays intact after Close.
type RunScanner struct {
	size   int64  // the run's length, known up front
	off    int64  // bytes fed so far
	chunk  []byte // the fed chunk's body bytes not yet decoded
	carry  []byte // a record begun in an earlier chunk, being assembled
	spare  []byte // the other carry buffer, which may hold the record before
	head   [4]byte
	tail   [12]byte
	framed bool // size and magic are right: records may be decoded
	crc    uint32
	n      uint64
	cur    Record
	err    error
}

// NewRunScanner returns a scanner for a run of size bytes.
func NewRunScanner(size int64) *RunScanner {
	return &RunScanner{size: size, framed: size >= int64(len(runMagic))+12}
}

// Feed hands the scanner the run's next chunk, which must stay unchanged
// while records that alias it are in use.
func (s *RunScanner) Feed(chunk []byte) {
	start := s.off
	s.off += int64(len(chunk))
	if !s.framed || s.off > s.size {
		s.framed = false
		return
	}
	at := func(from, to int64) []byte { // chunk ∩ [from, to) in run offsets
		return chunk[min(max(from-start, 0), int64(len(chunk))):max(min(to-start, int64(len(chunk))), 0)]
	}
	bodyEnd := s.size - 12
	copy(s.head[min(start, 4):], at(0, 4))
	copy(s.tail[max(start-bodyEnd, 0):], at(bodyEnd, s.size))
	if s.off >= 4 && s.head != runMagic {
		s.framed = false
		return
	}
	s.chunk = at(4, bodyEnd)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.chunk)
}

// Next decodes the next record that the chunks fed so far hold whole. It
// returns false when it needs the next chunk, at the end of the body, or
// at a record that does not decode (Err).
func (s *RunScanner) Next() bool {
	if !s.framed || s.err != nil {
		return false
	}
	if len(s.carry) > 0 {
		return s.assemble()
	}
	if len(s.chunk) == 0 {
		return false
	}
	r, n, err := DecodeRecord(s.chunk)
	if err != nil {
		// The record may go on in the next chunk: assemble it there, in
		// the carry buffer the record before did not use.
		s.carry, s.spare = append(s.spare[:0], s.chunk...), s.carry
		s.chunk = nil
		return s.assemble()
	}
	s.chunk = s.chunk[n:]
	s.cur = r
	s.n++
	return true
}

// assemble moves bytes of the fed chunk onto the record begun in the
// carry buffer, as many as its header says it lacks, and decodes it once
// whole. A record that cannot end within the body is corrupt.
func (s *RunScanner) assemble() bool {
	for {
		need, err := recordLen(s.carry)
		unfed := max(s.size-12-s.off, 0)
		if err != nil || int64(need) > int64(len(s.carry)+len(s.chunk))+unfed {
			s.err = ErrCorrupt
			return false
		}
		if need <= len(s.carry) {
			break
		}
		if len(s.chunk) == 0 {
			return false
		}
		k := min(need-len(s.carry), len(s.chunk))
		s.carry = append(s.carry, s.chunk[:k]...)
		s.chunk = s.chunk[k:]
	}
	r, _, _ := DecodeRecord(s.carry)
	s.carry = s.carry[:0]
	s.cur = r
	s.n++
	return true
}

// recordLen returns the encoded length of the record that b begins, or,
// when b ends inside the record's header, len(b)+1: at least one byte
// more is needed to know it.
func recordLen(b []byte) (int, error) {
	kl, n1 := binary.Uvarint(b)
	if n1 < 0 || kl > MaxRecordLen {
		return 0, ErrCorrupt
	}
	if n1 == 0 {
		return len(b) + 1, nil
	}
	vl, n2 := binary.Uvarint(b[n1:])
	if n2 < 0 || vl > MaxRecordLen {
		return 0, ErrCorrupt
	}
	if n2 == 0 {
		return len(b) + 1, nil
	}
	return n1 + n2 + int(kl) + int(vl), nil
}

// Record returns the current record.
func (s *RunScanner) Record() Record { return s.cur }

// Err returns the error that ended the records early — a record that does
// not decode or, after Close, a record count other than the trailer's —
// the errors RunReader reports for the same run.
func (s *RunScanner) Err() error { return s.err }

// Close ends the run. It returns ErrCorrupt when the run is too short,
// was fed other than size bytes or lacks the magic, and ErrBadChecksum
// when the body's CRC is not the trailer's: the errors that NewRunReader
// and the CRC check report before any record is read. Otherwise it
// checks the trailer's count, for Err.
func (s *RunScanner) Close() error {
	if !s.framed || s.off != s.size {
		return ErrCorrupt
	}
	if s.crc != binary.LittleEndian.Uint32(s.tail[8:]) {
		return ErrBadChecksum
	}
	if s.err == nil && (len(s.carry) > 0 || len(s.chunk) > 0 || s.n != binary.LittleEndian.Uint64(s.tail[:8])) {
		s.err = ErrCorrupt
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
	if len(run) < len(runMagic)+12 || [4]byte(run) != runMagic {
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
