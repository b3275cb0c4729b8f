package kv

import "slices"

// Merger performs a streaming k-way merge of sorted iterators, yielding
// records in global sorted order; records whose keys compare equal come
// out in source order, so the merge is stable. It is the one merge on the
// job path: the map-side spill merge, the HTTP engine's merge stages and
// the RDMA engines' refillable segments (which implement Iterator
// themselves) all run through it.
//
// The priority queue is a binary heap of 16-byte nodes held by value: a
// source's index and, under byte order, the 8-byte prefix of its current
// key, so most comparisons on the way down the heap are one integer
// compare in an array that stays in cache. The sources' iterators and
// current records sit in a side array that only a prefix tie reaches.
type Merger struct {
	heap []mergeNode
	srcs []mergeSource
	cmp  Comparator
	// prefixed: cmp is byte order, nodes carry key prefixes. Otherwise
	// every prefix is zero and the comparator decides.
	prefixed bool
	cur      Record
	err      error
	// init defers heap construction until the first Next so that a Merger
	// over zero iterators is valid and empty.
	init bool
}

type mergeNode struct {
	prefix uint64
	src    int32
}

type mergeSource struct {
	it   recordSource // the Iterator, or wrap around one without NextInto
	rec  Record
	wrap nextInto
}

// recordSource is the merge's one call per record: NextInto(r) is Next
// and then, if that was true, *r = Record(). A type that embeds a kv
// iterator and overrides Next must override NextInto too.
type recordSource interface {
	NextInto(r *Record) bool
	Err() error
}

// nextInto is the recordSource of an Iterator without NextInto.
type nextInto struct{ Iterator }

func (w *nextInto) NextInto(r *Record) bool {
	if !w.Next() {
		return false
	}
	*r = w.Record()
	return true
}

// NewMerger returns a merger over its (each individually sorted under
// cmp; nil means byte order).
func NewMerger(cmp Comparator, its ...Iterator) *Merger {
	m := &Merger{}
	m.Reset(cmp, its...)
	return m
}

// Reset starts the merger over its, as NewMerger(cmp, its...) would,
// keeping the source and heap slices of the merge before it. Nothing else
// of that merge survives: its iterators and records are cleared first, so
// Reset(nil) drops every reference a finished merge holds.
func (m *Merger) Reset(cmp Comparator, its ...Iterator) {
	clear(m.srcs)
	srcs := slices.Grow(m.srcs[:0], len(its))[:len(its)]
	for i, it := range its {
		if rs, ok := it.(recordSource); ok {
			srcs[i].it = rs
		} else {
			srcs[i].wrap.Iterator = it
			srcs[i].it = &srcs[i].wrap
		}
	}
	*m = Merger{heap: m.heap[:0], srcs: srcs, prefixed: IsByteOrder(cmp), cmp: cmp}
	if cmp == nil {
		m.cmp = BytesComparator
	}
}

// less orders heap nodes by prefix, then key, then source index. The last
// makes the order total, which is what makes the merge stable.
func (m *Merger) less(a, b mergeNode) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	if c := m.cmp(m.srcs[a.src].rec.Key, m.srcs[b.src].rec.Key); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

// siftDown restores the heap below position i, bottom-up (Wegener,
// "BOTTOM-UP-HEAPSORT", TCS 118, 1993): the hole at i walks down to a leaf
// along the smaller child, picked from the prefixes by a SETcc (only a tie
// calls less), and h[i]'s node climbs back up from there, rarely far.
func (m *Merger) siftDown(i int) {
	h := m.heap
	node, top := h[i], i
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) {
			l, r, right := h[c].prefix, h[c+1].prefix, 0
			if r < l {
				right = 1
			}
			if l == r && m.less(h[c+1], h[c]) {
				right = 1
			}
			c += right
		}
		h[i] = h[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !m.less(node, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = node
}

// advance steps node's source to its next record and reports whether it
// has one, filling in node's prefix; a source error is latched in m.err.
func (m *Merger) advance(node *mergeNode) bool {
	s := &m.srcs[node.src]
	if !s.it.NextInto(&s.rec) {
		s.rec = Record{}
		m.err = s.it.Err()
		return false
	}
	if m.prefixed {
		node.prefix = keyPrefix(s.rec.Key)
	}
	return true
}

// Next advances to the next record in merged order.
func (m *Merger) Next() bool {
	if m.err != nil {
		return false
	}
	if !m.init {
		m.init = true
		// Prime each source; drop exhausted ones.
		m.heap = slices.Grow(m.heap[:0], len(m.srcs))
		for i := range m.srcs {
			node := mergeNode{src: int32(i)}
			if m.advance(&node) {
				m.heap = append(m.heap, node)
			} else if m.err != nil {
				return false
			}
		}
		for i := len(m.heap)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	} else if len(m.heap) > 0 {
		// Advance the source we last emitted from.
		if !m.advance(&m.heap[0]) {
			if m.err != nil {
				return false
			}
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		if len(m.heap) > 1 {
			m.siftDown(0)
		}
	}
	if len(m.heap) == 0 {
		return false
	}
	m.cur = m.srcs[m.heap[0].src].rec
	return true
}

// Record returns the current record; it aliases the source iterator's
// buffer and is invalidated by the following Next.
func (m *Merger) Record() Record { return m.cur }

// Err returns the first source error.
func (m *Merger) Err() error { return m.err }

// MergeRuns merges encoded sorted runs into a single encoded sorted run.
// It is the unit the Local FS Merger iterates: repeatedly fold the smallest
// runs together until at most maxRuns remain (Hadoop's io.sort.factor).
func MergeRuns(cmp Comparator, runs ...[]byte) ([]byte, error) {
	its := make([]Iterator, 0, len(runs))
	body := 0
	for _, run := range runs {
		rr, err := NewRunReader(run)
		if err != nil {
			return nil, err
		}
		its = append(its, rr)
		body += len(rr.body)
	}
	// The merged body is the inputs' bodies interleaved: sized once.
	buf := newRunBuffer(body)
	count := uint64(0)
	m := NewMerger(cmp, its...)
	for m.Next() {
		buf = AppendRecord(buf, m.Record())
		count++
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	return sealRun(buf, count), nil
}
