package kv

import "slices"

// Merger performs a streaming k-way merge of sorted iterators, yielding
// records in global sorted order; records whose keys compare equal come
// out in source order, so the merge is stable. It is the one merge on the
// job path: the map-side spill merge, the HTTP engine's merge stages and
// the RDMA engines' refillable segments (which implement Iterator
// themselves) all run through it.
//
// The priority queue is a tournament (loser) tree of 16-byte nodes held
// by value (Knuth, TAOCP vol. 3, §5.4.1): a source's index and, under
// byte order, the 8-byte prefix of its current key, so most matches are
// one integer compare in an array that stays in cache. The sources'
// iterators and current records sit in a side array that only a prefix
// tie reaches.
type Merger struct {
	// tree[0] is the winner, tree[1:] the loser of each match; source s
	// is leaf len(tree)+s, and len(tree) is len(srcs) rounded up to a
	// power of two. Padding leaves and exhausted sources are done: src
	// len(srcs), prefix all ones.
	tree []mergeNode
	srcs []mergeSource
	cmp  Comparator
	// prefixed: cmp is byte order, nodes carry key prefixes. Otherwise
	// every live prefix is zero and the comparator decides.
	prefixed bool
	cur      Record
	err      error
	// init defers building the tree until the first Next so that a
	// Merger over zero iterators is valid and empty.
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
// keeping the source and tree slices of the merge before it. Nothing else
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
	*m = Merger{tree: m.tree[:0], srcs: srcs, prefixed: IsByteOrder(cmp), cmp: cmp}
	if cmp == nil {
		m.cmp = BytesComparator
	}
}

// less orders nodes by prefix, then liveness, then key, then source
// index: a done node loses every tie to a live one, whose key may have
// an all-ones prefix too. The last term makes the order total, which is
// what makes the merge stable.
func (m *Merger) less(a, b mergeNode) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	if done := int32(len(m.srcs)); a.src < done && b.src < done {
		if c := m.cmp(m.srcs[a.src].rec.Key, m.srcs[b.src].rec.Key); c != 0 {
			return c < 0
		}
	}
	return a.src < b.src
}

// build plays every match below node i, keeping each one's loser, and
// returns the winner; it primes the sources, in order, as it reaches
// their leaves. A source error leaves every later source done.
func (m *Merger) build(i int) mergeNode {
	if i >= len(m.tree) {
		if s := i - len(m.tree); s < len(m.srcs) && m.err == nil {
			node := mergeNode{src: int32(s)}
			m.advance(&node)
			return node
		}
		return mergeNode{^uint64(0), int32(len(m.srcs))}
	}
	w, l := m.build(2*i), m.build(2*i+1)
	if m.less(l, w) {
		w, l = l, w
	}
	m.tree[i] = l
	return w
}

// replay carries w, the new node of source s, the last winner, from its
// leaf's parent to the root. The path is fixed by the leaf, so no load
// waits on a compare, and each level is one prefix compare and a swap
// made of conditional moves; only a prefix tie calls less.
func (m *Merger) replay(w mergeNode, s int32) {
	t := m.tree
	for i := (len(t) + int(s)) >> 1; i > 0; i >>= 1 {
		l := t[i]
		up := l.prefix < w.prefix
		if l.prefix == w.prefix {
			up = m.less(l, w)
		}
		if up {
			w, l = l, w
		}
		t[i] = l
	}
	t[0] = w
}

// advance steps node's source to its next record and fills in node's
// prefix, or makes node done when the source has no record left; a
// source error is latched in m.err.
func (m *Merger) advance(node *mergeNode) {
	s := &m.srcs[node.src]
	if !s.it.NextInto(&s.rec) {
		s.rec = Record{}
		m.err = s.it.Err()
		*node = mergeNode{^uint64(0), int32(len(m.srcs))}
	} else if m.prefixed {
		node.prefix = keyPrefix(s.rec.Key)
	}
}

// Next advances to the next record in merged order.
func (m *Merger) Next() bool {
	if m.err != nil {
		return false
	}
	if !m.init {
		m.init = true
		k := 1
		for k < len(m.srcs) {
			k *= 2
		}
		m.tree = slices.Grow(m.tree[:0], k)[:k]
		m.tree[0] = m.build(1)
	} else if w := m.tree[0]; int(w.src) < len(m.srcs) {
		// Advance the source we last emitted from.
		s := w.src
		m.advance(&w)
		m.replay(w, s)
	}
	if m.err != nil {
		return false
	}
	w := m.tree[0]
	if int(w.src) >= len(m.srcs) {
		return false
	}
	m.cur = m.srcs[w.src].rec
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
