package kv

import (
	"cmp"
	"encoding/binary"
	"math/bits"
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
	scratch   []sortEntry  // Sort's ping-pong twin of index
	parts     []partStat   // per partition, maintained at Add
	starts    []int        // partition p's sorted entries are index[starts[p]:starts[p+1]]
	counts    [1 << 12]int // sortRange's bucket cursors
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
// It sorts the entries alone, never record bytes. A stable counting
// scatter by partition, whose bucket sizes Add already counted, moves the
// index into its scratch twin (with one partition the two swap roles);
// sortRange brings each partition's range back sorted. Every scatter is
// stable and insertion sorts move an entry only past a strictly greater
// one, so equal keys stay in emission order.
func (b *SortBuffer) Sort() {
	n := len(b.index)
	if cap(b.scratch) < cap(b.index) {
		b.scratch = make([]sortEntry, cap(b.index))
	}
	b.starts = slices.Grow(b.starts[:0], b.n+1)[:b.n+1]
	for p, st := range b.parts {
		b.starts[p+1] = b.starts[p] + st.records
	}
	src, dst := b.index, b.scratch[:n]
	if b.n > 1 {
		copy(b.starts[1:], b.starts[:b.n]) // starts[p+1] is p's cursor
		for i := range src {
			p := src[i].part + 1
			dst[b.starts[p]] = src[i]
			b.starts[p]++
		}
		src, dst = dst, src
	}
	b.index, b.scratch = dst, src
	for p := range b.n {
		s, e := b.starts[p], b.starts[p+1]
		b.sortRange(src[s:e], dst[s:e])
	}
}

// sortRange writes src's entries, ordered by prefix, then key, then
// offset, into dst, and may reorder src. Unless all prefixes are equal (as
// under a custom comparator: all zero), one stable counting scatter on the
// top 4 to 12 bits in which they differ, by the range's length, leaves dst
// in buckets of equal top bits; buckets over 16 are sorted the same way a
// level down, and one insertion sort over dst finishes the rest.
func (b *SortBuffer) sortRange(src, dst []sortEntry) {
	if len(src) <= 16 {
		copy(dst, src)
		b.insertionSort(dst)
		return
	}
	lo, hi := src[0].prefix, src[0].prefix
	for i := range src {
		lo, hi = min(lo, src[i].prefix), max(hi, src[i].prefix)
	}
	if lo == hi {
		copy(dst, src)
		slices.SortFunc(dst, b.compareKeys)
		return
	}
	shift := max(bits.Len64(lo^hi)-min(max(bits.Len(uint(len(src))), 4), 12), 0)
	base := lo >> shift
	counts := b.counts[:hi>>shift-base+1]
	clear(counts)
	for i := range src {
		counts[src[i].prefix>>shift-base]++
	}
	next, big := 0, 0
	for v, c := range counts {
		counts[v], next, big = next, next+c, max(big, c)
	}
	for i := range src {
		v := src[i].prefix>>shift - base
		dst[counts[v]] = src[i]
		counts[v]++
	}
	for i := 0; big > 16 && i < len(dst); {
		j := i + 1
		for j < len(dst) && dst[j].prefix>>shift == dst[i].prefix>>shift {
			j++
		}
		if j-i > 16 {
			copy(src[i:j], dst[i:j])
			b.sortRange(src[i:j], dst[i:j])
		}
		i = j
	}
	b.insertionSort(dst)
}

// insertionSort orders a by prefix, then key ("a" and "a\x00" share a
// prefix), moving an entry only past a strictly greater one, so ties keep
// their order. Handed ordered buckets of at most 16, it is linear.
func (b *SortBuffer) insertionSort(a []sortEntry) {
	for i := 1; i < len(a); i++ {
		e, j := a[i], i
		for ; j > 0 && (e.prefix < a[j-1].prefix || e.prefix == a[j-1].prefix && b.cmp(b.key(&e), b.key(&a[j-1])) < 0); j-- {
			a[j] = a[j-1]
		}
		a[j] = e
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
	return b.index[b.starts[p]:b.starts[p+1]]
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
