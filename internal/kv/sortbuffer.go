package kv

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// SortBuffer is the map-side collect buffer, shaped like Hadoop's
// MapOutputBuffer: record bytes are appended once, key‖value back to
// back, into one contiguous arena, and everything after that — the
// partition/sort and the encoding of each partition's run — works on a
// side index of fixed-size entries. Sorting moves 32-byte entries, never
// record bytes, and each run is encoded straight from the arena into one
// exactly-sized buffer.
//
// The lifecycle is Add… → Sort → Run/Records per partition → Reset.
type SortBuffer struct {
	part Partitioner
	n    int
	cmp  Comparator // nil: byte order, compared by key prefix first

	arena     []byte
	arenaHint int
	index     []sortEntry
	parts     []partStat // per partition, maintained at Add
	encoded   int64
}

// sortEntry locates one record in the arena. prefix is the first eight
// key bytes, big-endian and zero-padded, so that under byte order two
// entries with different prefixes compare like their keys without
// touching the arena; under a custom comparator it stays zero.
type sortEntry struct {
	prefix uint64
	off    uint64
	part   uint32
	klen   uint32
	vlen   uint32
}

type partStat struct {
	records int
	body    int // encoded bytes of the partition's records
}

// NewSortBuffer returns a buffer that routes keys with part into n
// partitions and orders each partition under cmp. A nil cmp means the
// default byte order (BytesComparator) and enables the key-prefix fast
// path; any other comparator is consulted for every comparison, because
// a prefix says nothing about a custom order. arenaHint pre-sizes the
// arena — the split length is the natural estimate for a map task.
func NewSortBuffer(part Partitioner, n int, cmp Comparator, arenaHint int) *SortBuffer {
	return &SortBuffer{
		part: part, n: n, cmp: cmp,
		arena:     make([]byte, 0, arenaHint),
		arenaHint: arenaHint,
		parts:     make([]partStat, n),
	}
}

// Add copies one record into the arena and indexes it. key and value may
// be reused by the caller as soon as Add returns.
func (b *SortBuffer) Add(key, value []byte) {
	if len(b.index) == cap(b.index) {
		b.growIndex()
	}
	p := b.part.Partition(key, b.n)
	e := sortEntry{off: uint64(len(b.arena)), part: uint32(p), klen: uint32(len(key)), vlen: uint32(len(value))}
	if b.cmp == nil {
		e.prefix = keyPrefix(key)
	}
	b.arena = append(append(b.arena, key...), value...)
	if len(key)+len(value) == 0 {
		// Sort breaks ties on the offset, which therefore has to be
		// unique: an empty record takes one unused arena byte.
		b.arena = append(b.arena, 0)
	}
	b.index = append(b.index, e)
	enc := Record{Key: key, Value: value}.EncodedLen()
	b.parts[p].records++
	b.parts[p].body += enc
	b.encoded += int64(enc)
}

// growIndex sizes the index for the records still to come by carrying
// the mean record size seen so far over the rest of the arena hint, so a
// split of uniform records allocates its index once; it never grows by
// less than doubling.
func (b *SortBuffer) growIndex() {
	want := max(2*cap(b.index), 64)
	if used := len(b.arena); used > 0 && used < b.arenaHint {
		projected := int(int64(len(b.index)) * int64(b.arenaHint) / int64(used))
		want = max(want, projected+projected/64+1)
	}
	b.index = slices.Grow(b.index, want-len(b.index))
}

// keyPrefix packs the first eight bytes of key big-endian, zero-padded.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, c := range key {
		p |= uint64(c) << (56 - 8*i)
	}
	return p
}

// Len returns the number of records held.
func (b *SortBuffer) Len() int { return len(b.index) }

// EncodedBytes returns the run-encoded size of the records held — the
// quantity io.sort.mb bounds.
func (b *SortBuffer) EncodedBytes() int64 { return b.encoded }

func (b *SortBuffer) key(e *sortEntry) []byte {
	return b.arena[e.off : e.off+uint64(e.klen)]
}

func (b *SortBuffer) record(e *sortEntry) Record {
	k := e.off + uint64(e.klen)
	v := k + uint64(e.vlen)
	return Record{Key: b.arena[e.off:k:k], Value: b.arena[k:v:v]}
}

// Sort orders the index by partition, then key, then arena offset.
// Arena offsets strictly increase in Add order, so the last tie-break
// makes equal keys keep their emission order — exactly what a stable
// sort of the records would produce — while leaving the order total,
// which lets the faster unstable sort be used. Equal prefixes do not
// imply equal keys ("a" and "a\x00" share one), so a prefix tie falls
// through to the keys.
func (b *SortBuffer) Sort() {
	order := b.cmp
	if order == nil {
		order = BytesComparator
	}
	slices.SortFunc(b.index, func(x, y sortEntry) int {
		if x.part != y.part {
			return cmp.Compare(x.part, y.part)
		}
		if x.prefix != y.prefix { // all zero under a custom comparator
			return cmp.Compare(x.prefix, y.prefix)
		}
		if c := order(b.key(&x), b.key(&y)); c != 0 {
			return c
		}
		return cmp.Compare(x.off, y.off)
	})
}

// entries returns partition p's slice of the sorted index.
func (b *SortBuffer) entries(p int) []sortEntry {
	start := 0
	for _, st := range b.parts[:p] {
		start += st.records
	}
	return b.index[start : start+b.parts[p].records]
}

// Run encodes partition p's records, in sorted order, as a complete run
// in a fresh buffer of exactly the run's size. Call after Sort. The
// caller owns the result.
func (b *SortBuffer) Run(p int) []byte {
	buf := newRunBuffer(b.parts[p].body)
	ents := b.entries(p)
	for i := range ents {
		e := &ents[i]
		buf = binary.AppendUvarint(buf, uint64(e.klen))
		buf = binary.AppendUvarint(buf, uint64(e.vlen))
		buf = append(buf, b.arena[e.off:e.off+uint64(e.klen)+uint64(e.vlen)]...)
	}
	return sealRun(buf, uint64(len(ents)))
}

// Records appends partition p's records, in sorted order, to dst and
// returns it. The records are views into the arena: valid until Reset.
// Call after Sort.
func (b *SortBuffer) Records(p int, dst []Record) []Record {
	ents := b.entries(p)
	dst = slices.Grow(dst, len(ents))
	for i := range ents {
		dst = append(dst, b.record(&ents[i]))
	}
	return dst
}

// Reset empties the buffer, keeping the arena and index for the next
// fill.
func (b *SortBuffer) Reset() {
	b.arena = b.arena[:0]
	b.index = b.index[:0]
	clear(b.parts)
	b.encoded = 0
}
