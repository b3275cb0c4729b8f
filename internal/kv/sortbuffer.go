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
// The lifecycle is Reset → Add… → Sort → Run/Records per partition; the
// zero value is ready for its first Reset. A buffer keeps its arena,
// index and sort scratch across Resets, so one buffer serves every spill
// of a task and every task of a map slot.
type SortBuffer struct {
	part     Partitioner
	n        int
	cmp      Comparator
	prefixed bool // byte order: entries carry their key prefix

	arena     []byte
	arenaHint int
	index     []sortEntry
	scratch   []sortEntry // Sort's ping-pong twin of index
	parts     []partStat  // per partition, maintained at Add
	starts    []int       // Sort's per-partition scatter cursors
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
// partitions and orders each partition under cmp; see Reset for the
// arguments.
func NewSortBuffer(part Partitioner, n int, cmp Comparator, arenaHint int) *SortBuffer {
	b := &SortBuffer{}
	b.Reset(part, n, cmp, arenaHint)
	return b
}

// Reset empties the buffer and sets it up for the next fill — the next
// spill of the same task, or another task altogether — keeping whatever
// arena, index and scratch capacity it has. Byte order (IsByteOrder(cmp))
// sorts on key prefixes; any other comparator is consulted for every
// comparison, because a prefix says nothing about a custom order.
// arenaHint pre-sizes the arena — the split length is the natural
// estimate for a map task.
func (b *SortBuffer) Reset(part Partitioner, n int, cmp Comparator, arenaHint int) {
	b.part, b.n = part, n
	b.prefixed = IsByteOrder(cmp)
	if cmp == nil {
		cmp = BytesComparator
	}
	b.cmp = cmp
	b.arena = slices.Grow(b.arena[:0], arenaHint)
	b.arenaHint = arenaHint
	b.index = b.index[:0]
	b.parts = slices.Grow(b.parts[:0], n)[:n]
	clear(b.parts)
	b.encoded = 0
}

// Add copies one record into the arena and indexes it. key and value may
// be reused by the caller as soon as Add returns.
func (b *SortBuffer) Add(key, value []byte) {
	if len(b.index) == cap(b.index) {
		b.growIndex()
	}
	p := b.part.Partition(key, b.n)
	e := sortEntry{off: uint64(len(b.arena)), part: uint32(p), klen: uint32(len(key)), vlen: uint32(len(value))}
	if b.prefixed {
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
// Prefixes order like the keys they came from wherever they differ:
// padding with zeros makes a key that is a proper prefix of another sort
// first or tie, never after.
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
// sort of the records would produce.
//
// It is a radix sort on the entries alone. The index starts in emission
// order; a least-significant-digit pass per byte of the prefix that is
// not the same in every entry, each a stable counting scatter between
// the index and its scratch twin, leaves it ordered by prefix with equal
// prefixes in emission order; one more stable scatter by partition,
// whose bucket sizes Add already counted, makes that partition → prefix
// → emission order. Only then are keys looked at: equal prefixes do not
// imply equal keys ("a" and "a\x00" share one), so every stretch of two
// or more entries with one (partition, prefix) is ordered by the
// comparator, then the offset. Under a custom comparator every prefix is
// zero, no digit pass runs, and the stretch is the whole partition.
func (b *SortBuffer) Sort() {
	n := len(b.index)
	if n < 2 {
		return
	}
	if cap(b.scratch) < cap(b.index) {
		b.scratch = make([]sortEntry, cap(b.index))
	}
	src, dst := b.index, b.scratch[:n]

	var hist [8][256]int
	for i := range src {
		p := src[i].prefix
		hist[0][byte(p)]++
		hist[1][byte(p>>8)]++
		hist[2][byte(p>>16)]++
		hist[3][byte(p>>24)]++
		hist[4][byte(p>>32)]++
		hist[5][byte(p>>40)]++
		hist[6][byte(p>>48)]++
		hist[7][byte(p>>56)]++
	}
	for d := range hist {
		h, shift := &hist[d], 8*d
		if h[byte(src[0].prefix>>shift)] == n {
			continue // every entry has the same digit here
		}
		next := 0
		for v, count := range h {
			h[v], next = next, next+count
		}
		for i := range src {
			v := byte(src[i].prefix >> shift)
			dst[h[v]] = src[i]
			h[v]++
		}
		src, dst = dst, src
	}
	if b.n > 1 {
		b.starts = slices.Grow(b.starts[:0], b.n)[:b.n]
		next := 0
		for p, st := range b.parts {
			b.starts[p], next = next, next+st.records
		}
		for i := range src {
			p := src[i].part
			dst[b.starts[p]] = src[i]
			b.starts[p]++
		}
		src, dst = dst, src
	}
	b.index, b.scratch = src, dst

	byKey := b.compareKeys
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].prefix == src[i].prefix && src[j].part == src[i].part {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], byKey)
		}
		i = j
	}
}

// compareKeys orders two entries of one partition by key, then by arena
// offset.
func (b *SortBuffer) compareKeys(x, y sortEntry) int {
	if c := b.cmp(b.key(&x), b.key(&y)); c != 0 {
		return c
	}
	return cmp.Compare(x.off, y.off)
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
	run := make([]byte, b.RunLen(p))
	b.RunInto(p, run)
	return run
}

// RunLen returns the encoded length of partition p's run.
func (b *SortBuffer) RunLen(p int) int { return len(runMagic) + b.parts[p].body + 12 }

// RunInto encodes partition p's run into dst, which must be exactly
// RunLen(p) bytes long: byte for byte what Run returns, in memory the
// caller chose. Call after Sort.
func (b *SortBuffer) RunInto(p int, dst []byte) {
	if len(dst) != b.RunLen(p) {
		panic("kv: RunInto buffer is not the run's length")
	}
	buf := append(dst[:0], runMagic[:]...)
	ents := b.entries(p)
	for i := range ents {
		e := &ents[i]
		buf = binary.AppendUvarint(buf, uint64(e.klen))
		buf = binary.AppendUvarint(buf, uint64(e.vlen))
		buf = append(buf, b.arena[e.off:e.off+uint64(e.klen)+uint64(e.vlen)]...)
	}
	sealRun(buf, uint64(len(ents)))
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
