package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/obs"
	"rdmamr/internal/shuffle/stream"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// chunk is one delivered shuffle packet for a segment.
type chunk struct {
	pl   payload
	off  int64 // the offset this chunk was requested at (for retries)
	err  error
	span *obs.FetchSpan // set only when profiling is enabled
	eof  bool
}

// segment is one map output partition being streamed chunk-by-chunk — the
// refillable source the priority-queue merge draws from: "it needs to get
// next set of key-value pairs from that particular map task to resume
// extracting from Priority Queue" (§III-B.2). It is a kv.Iterator, so
// the merge is kv.Merger's, pulled by the reduce goroutine through the
// fetcher's stream.Iterator; blocking refills (and the map recovery a
// failed one triggers) run on that goroutine under the fetcher's lifetime
// context. A fetcher allocates its segments together, one per map.
type segment struct {
	mapID int32
	// attempts is recovery attempts consumed.
	attempts int32
	peer     *hostPeer
	f        *fetcher

	// next is the chunk delivered ahead of the merge, under f.dmu: a
	// segment has at most one chunk in flight, so one place holds it.
	next    chunk
	arrived bool

	// Private to the goroutine pulling the merge.
	walking bool              // it walks cur
	eof     bool              // the partition's last chunk is in
	it      kv.BufferIterator // reset for every chunk
	cur     payload           // the chunk buffer the iterator walks
	err     error
}

// request asks the host peer for the chunk at offset.
func (seg *segment) request(offset int64) {
	req := chunkReq{offset: offset, seg: seg}
	if seg.f.prof != nil {
		req.enq = time.Now()
	}
	seg.peer.enqueue(req)
}

// deliver hands the segment its next chunk. It never blocks: the segment
// has no other chunk in flight, and the merge is woken only if it waits on
// this segment. After the fetcher's supervisors have exited nothing
// delivers, so Close finds a chunk nobody took in next.
func (seg *segment) deliver(ck chunk) {
	f := seg.f
	f.dmu.Lock()
	seg.next, seg.arrived = ck, true
	waiting := f.waiting == seg
	if waiting {
		f.waiting = nil
	}
	f.dmu.Unlock()
	if waiting {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks the merge until the segment's next chunk has arrived.
func (seg *segment) await(ctx context.Context) (chunk, error) {
	f := seg.f
	for {
		f.dmu.Lock()
		if seg.arrived {
			ck := seg.next
			seg.next, seg.arrived = chunk{}, false
			f.dmu.Unlock()
			return ck, nil
		}
		f.waiting = seg
		f.dmu.Unlock()
		select {
		case <-f.wake:
		case <-ctx.Done():
			return chunk{}, ctx.Err()
		}
	}
}

// loadChunk blocks for the next chunk, installs its iterator, and
// pipelines the request for the chunk after it. Returns false when the
// segment is exhausted. A failed chunk triggers map re-execution (when
// recovery is wired) and a re-request of the SAME offset from the host
// now serving the regenerated output — deterministic map functions make
// the bytes identical, so mid-stream offsets stay valid.
func (seg *segment) loadChunk(ctx context.Context) (bool, error) {
	prof := seg.f.prof
	for {
		var waitStart time.Time
		if prof != nil {
			waitStart = time.Now()
		}
		ck, err := seg.await(ctx)
		if err != nil {
			return false, err
		}
		if prof != nil {
			// Time the merge spent parked on this select is exactly the
			// "reduce waits on shuffle" stall: a chunk already delivered
			// returns immediately and contributes ~nothing.
			now := time.Now()
			prof.MergeStall(now.Sub(waitStart))
			if sp := ck.span; sp != nil {
				sp.Delivered = now
				prof.AddSpan(sp)
				prof.FetchObserved(sp.Host, sp.Reduce, sp.Total(), sp.Bytes, now)
				prof.Mark(obs.PhaseShuffle, sp.Reduce, now)
				if tr := seg.f.tr; tr != nil {
					// One X event per fetch, on the reducer node, laned by
					// serving host so concurrent streams render side by side.
					tr.Fetch(seg.f.task.Local.Host(),
						fmt.Sprintf("fetch r%d<-%s", sp.Reduce, sp.Host),
						fmt.Sprintf("fetch m%d", sp.MapID), sp.Enqueued, now,
						map[string]string{
							"corr":    fmt.Sprintf("%s/r%d@%d", seg.f.task.Job.ID, sp.Reduce, seg.f.task.Attempt),
							"host":    sp.Host,
							"bytes":   fmt.Sprintf("%d", sp.Bytes),
							"retries": fmt.Sprintf("%d", sp.Retries),
						})
				}
			}
		}
		if ck.err != nil {
			seg.attempts++
			if seg.f.task.RecoverMap == nil {
				return false, ck.err
			}
			if seg.attempts > mapred.MaxMapRecoveries {
				return false, fmt.Errorf("core: map %d unrecoverable after %d fetch attempts (last host %s): %w",
					seg.mapID, seg.attempts, seg.peer.host, ck.err)
			}
			seg.f.task.Local.Counters().Add("shuffle.fetch.failures", 1)
			host, err := seg.f.task.RecoverMap(ctx, int(seg.mapID), int(seg.attempts))
			if err != nil {
				return false, fmt.Errorf("recovering map %d: %w (after %w)", seg.mapID, err, ck.err)
			}
			p := seg.f.peers[host]
			if p == nil {
				return false, fmt.Errorf("core: recovered map %d on unknown host %s", seg.mapID, host)
			}
			seg.peer = p
			seg.request(ck.off)
			continue
		}
		seg.eof = ck.eof
		if !ck.eof {
			// Depth-1 lookahead within the segment: fetch the next chunk
			// while the merge consumes this one. Cross-segment depth comes
			// from the connection's slot ring.
			seg.request(ck.off + int64(len(ck.pl.buf)))
		}
		if len(ck.pl.buf) > 0 {
			seg.it.Reset(ck.pl.buf)
			seg.walking = true
			seg.cur = ck.pl
			return true, nil
		}
		if seg.eof {
			return false, nil // empty partition
		}
	}
}

// Next implements kv.Iterator: it advances to the segment's next record,
// refilling across chunk boundaries, and returns false at the end of the
// partition or on the error Err then reports.
func (seg *segment) Next() bool {
	for {
		if seg.walking {
			if seg.it.Next() {
				return true
			}
			if seg.err = seg.it.Err(); seg.err != nil {
				return false
			}
			seg.walking = false
			if seg.cur.buf != nil {
				// The chunk is drained, but the record the consumer holds
				// until this Next returns may be its last one: the buffer
				// is retired to the iterator, which gives it back on the
				// following call.
				seg.f.it.Retire(seg.cur)
				seg.cur = payload{}
			}
		}
		if seg.eof {
			return false
		}
		ok, err := seg.loadChunk(seg.f.runCtx)
		if err != nil {
			seg.err = err
			return false
		}
		if !ok {
			return false
		}
	}
}

// Record implements kv.Iterator: the current chunk iterator's record.
func (seg *segment) Record() kv.Record { return seg.it.Record() }

// Err implements kv.Iterator.
func (seg *segment) Err() error { return seg.err }

// drop gives back what the segment still holds when the fetcher closes in
// mid-stream: the chunk being walked and the one delivered ahead of it.
// Only after the supervisors have exited and the consumer has let go.
func (seg *segment) drop() {
	seg.f.release(seg.cur)
	seg.cur = payload{}
	if seg.arrived {
		seg.f.release(seg.next.pl)
		seg.next, seg.arrived = chunk{}, false
	}
}

type chunkReq struct {
	seg    *segment // asks for a chunk of its map's partition
	offset int64
	// enq is the span origin (zero unless profiling is enabled). A
	// re-issued request keeps its original enq, so the span covers the
	// full latency the reducer observed, retries included.
	enq time.Time
	// retries counts how many times THIS request has been re-issued after
	// a transient failure. Offsets make re-fetch idempotent; the budget
	// (mapred.rdma.connect.retries) bounds how long one stubborn chunk can
	// stall before its segment escalates to map re-execution.
	retries int32
	// noRead makes this request ask for an eager response (no
	// FlagFetchRead). Set after a READ against this offset faulted (lease
	// expired, entry evicted): the re-issue must not ask for another
	// manifest, or an aggressively evicting tracker could bounce the same
	// chunk between manifest and fault forever. Survives takePending
	// re-issues by riding in the request itself.
	noRead bool
}

// readPlan is the copier-side life of one descriptor manifest (D9): the
// remaining chunks the copier may READ under the manifest's lease, in
// offset order. A plan dies by exhaustion (every chunk taken), by
// mismatch (the segment asked for an offset other than the head — a
// retry or recovery changed the stream), or by a READ fault. The last
// in-flight chunk of a dead plan sends the eager LeaseRelease so the
// server drops its pin before the deadline.
type readPlan struct {
	mapID    int
	leaseID  uint64
	rkey     uint32
	chunks   []wire.ReadChunk // not yet taken; head is the next offset
	pending  int              // chunks taken but not yet completed
	released bool
}

// readJob is one chunk to pull one-sided: the slot whose request it
// completes, the manifest chunk describing the remote ranges, and the
// plan it came from.
type readJob struct {
	slot  uint32
	entry wire.ReadChunk
	plan  *readPlan
}

// hostPeer is the fetcher's long-lived handle on one TaskTracker. It
// outlives individual connections: segments enqueue requests here, and
// the peer's supervisor goroutine (peerLoop) dials, runs each connection
// as its event loop, re-dials with backoff, and re-issues in-flight
// requests across connection deaths. Only after the retry budget is
// exhausted is the peer declared dead and every queued request answered
// with an error chunk (the RecoverMap escalation path).
type hostPeer struct {
	f      *fetcher
	host   string
	health *peerHealth

	// wake holds a token once a request has been queued since the
	// supervisor last looked.
	wake chan struct{}

	// lostCh closes when the cluster's liveness detector declares the
	// host dead (ReduceTaskInfo.Losses): the supervisor then ends the
	// running connection, skips its remaining retry budget and backoff
	// sleeps and kills the peer immediately, so segments escalate to
	// RecoverMap without waiting out request deadlines against a corpse.
	lostOnce sync.Once
	lostCh   chan struct{}

	// mu guards the request queue, reqs[head:], stable across reconnects.
	// It grows to the host's demand — at most one request per segment —
	// and never blocks a producer.
	mu   sync.Mutex
	reqs []chunkReq
	head int

	// The books of the host's connection, one at a time: kept across
	// reconnects, and with the fetch arena across fetchers. dialConn hands
	// pending and free to the hostConn; batch is what its loop sends.
	pending []pendingSlot
	free    []uint32
	batch   wire.Batch
}

// reset clears the peer for its fetch arena once the fetcher's
// supervisors have exited: the queue and the connection books keep their
// arrays with no request left in them, and the channels are kept, lostCh
// unless a loss notice closed it.
func (p *hostPeer) reset() {
	select {
	case <-p.wake:
	default:
	}
	lostCh := p.lostCh
	if p.isLost() {
		lostCh = nil
	}
	// Compaction leaves copies past len: clear the whole array.
	clear(p.reqs[:cap(p.reqs)])
	clear(p.pending)
	*p = hostPeer{
		wake: p.wake, lostCh: lostCh, reqs: p.reqs[:0],
		pending: p.pending, free: p.free[:0], batch: p.batch,
	}
}

// connBooks returns the slot table and free-slot stack for a connection
// of depth slots, every slot free and slot 0 on top.
func (p *hostPeer) connBooks(depth int) ([]pendingSlot, []uint32) {
	if len(p.pending) != depth {
		p.pending, p.free = make([]pendingSlot, depth), make([]uint32, 0, depth)
	}
	clear(p.pending)
	p.free = p.free[:0]
	for s := depth - 1; s >= 0; s-- {
		p.free = append(p.free, uint32(s))
	}
	return p.pending, p.free
}

// errTrackerLost is the non-transient cause killPeer reports when the
// scheduler's failure detector, not the transport, declared the host dead.
var errTrackerLost = errors.New("core: tracker declared dead by cluster liveness")

// markLost records the liveness verdict, returning true on the first
// call. The supervisor sees lostCh close, in a running connection's loop
// too.
func (p *hostPeer) markLost() bool {
	first := false
	p.lostOnce.Do(func() { first = true; close(p.lostCh) })
	return first
}

func (p *hostPeer) isLost() bool {
	select {
	case <-p.lostCh:
		return true
	default:
		return false
	}
}

// enqueue queues a request for the host. It never blocks, so the
// supervisor may put back a request it could not finish.
func (p *hostPeer) enqueue(req chunkReq) {
	p.mu.Lock()
	if len(p.reqs) == cap(p.reqs) && p.head > 0 {
		p.reqs = p.reqs[:copy(p.reqs, p.reqs[p.head:])]
		p.head = 0
	}
	p.reqs = append(p.reqs, req)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// pop takes the oldest queued request, if there is one.
func (p *hostPeer) pop() (chunkReq, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.head == len(p.reqs) {
		return chunkReq{}, false
	}
	req := p.reqs[p.head]
	p.reqs[p.head] = chunkReq{}
	if p.head++; p.head == len(p.reqs) {
		p.reqs, p.head = p.reqs[:0], 0
	}
	return req, true
}

// next takes the oldest queued request, waiting for one until ctx ends.
func (p *hostPeer) next(ctx context.Context) (chunkReq, bool) {
	for {
		if req, ok := p.pop(); ok {
			return req, true
		}
		select {
		case <-p.wake:
		case <-ctx.Done():
			return chunkReq{}, false
		}
	}
}

// queued is the number of requests waiting in the queue.
func (p *hostPeer) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.reqs) - p.head
}

// pendingSlot is one ring slot's in-flight request, if it has one (busy):
// which request owns the slot, when it was issued (for the supervisor's
// per-request deadline check), and how long it waited for a free
// bounce-buffer slot (span accounting).
type pendingSlot struct {
	req      chunkReq
	issued   time.Time
	slotWait time.Duration
}

// busy reports whether the slot has a request in flight: every request
// belongs to a segment.
func (ps *pendingSlot) busy() bool { return ps.req.seg != nil }

// hostConn is ONE connection attempt to a TaskTracker: a lease on the
// device's shared endpoint to that host (D13) plus a slab-carved ring of
// registered bounce-buffer slots the responder RDMA-writes eager packets
// into. A READ lands in a payload block instead (D21), and in its slot
// only when the registered-memory budget refused the block.
// Up to depth requests are in flight per connection — one per slot —
// and responses carry the lease-scoped slot tag, so chunk fetches for
// different segments on the same host complete out of order while each
// segment's own byte stream stays ordered (a segment never has more than
// one chunk in flight). The supervisor's goroutine runs it as one event
// loop (runConn) and issues every READ it finds itself (D20); nothing
// else touches it. A hostConn is single-use: on any failure it is
// abandoned and the supervisor acquires a fresh lease.
type hostConn struct {
	lease *connLease
	gen   uint64 // shared-connection incarnation (health dedupe)
	// ring is depth × slotSize bytes, window-advertised. Slot i holds the
	// eager answer to the request tagged i, or its READ when the budget
	// refused a payload block; a READ chunk otherwise never touches it.
	ring     *mrpool.Block
	slotSize int

	pending  []pendingSlot     // by ring slot: its in-flight request
	free     []uint32          // slots with no request in flight, a stack
	inFlight int               // busy slots
	plans    map[int]*readPlan // mapID → live manifest plan (nil until one is)

	// progress is set on the first successful chunk, resetting the
	// peer's consecutive-failure accounting: the link works, later
	// failures start a fresh streak.
	progress bool
	// lastActive is the idle clock: the last send, delivery, READ, or
	// queued demand.
	lastActive time.Time
	// stalled is set while requests wait with every slot busy, since
	// stallStart (stamped only when profiling).
	stalled    bool
	stallStart time.Time
	// err is the first failure; the loop ends once it is set.
	err error
}

// abort fails the connection with the first error observed: its loop
// ends, and the supervisor tears it down and re-issues whatever
// takePending returns.
func (hc *hostConn) abort(err error) {
	if hc.err == nil {
		hc.err = err
	}
}

// errConnIdle is the clean cause the idle check aborts with: not a
// failure — no health hit, no retry budget, no backoff. The supervisor
// parks until the next demand and redials lazily.
var errConnIdle = errors.New("core: connection idle")

// takePending appends to reqs every request the dead connection still
// owed a response, emptying its slots.
func (hc *hostConn) takePending(reqs []chunkReq) []chunkReq {
	for i := range hc.pending {
		if hc.pending[i].busy() {
			reqs = append(reqs, hc.pending[i].req)
		}
	}
	clear(hc.pending)
	hc.inFlight = 0
	return reqs
}

// owes reports whether ring slot `slot` is one of the ring's and has a
// request in flight.
func (hc *hostConn) owes(slot uint32) bool {
	return int(slot) < len(hc.pending) && hc.pending[slot].busy()
}

// finish takes the request out of a slot it owes and puts the slot back
// on the free stack: complete it, re-issue it, or fail it. The slot's
// bytes stay put until the slot is sent again.
func (hc *hostConn) finish(slot uint32) pendingSlot {
	ps := hc.pending[slot]
	hc.pending[slot] = pendingSlot{}
	hc.inFlight--
	hc.free = append(hc.free, slot)
	return ps
}

// planTake matches a request against the host's live plan for its map:
// a hit pops the head chunk for a one-sided READ in place of a wire
// request. A mismatch (retry or recovery moved the stream) abandons the
// plan — its chunks describe offsets this segment will never ask for
// again in order. staleID is the lease to release when an abandoned
// plan has nothing in flight.
func (hc *hostConn) planTake(mapID int, offset int64) (entry wire.ReadChunk, plan *readPlan, staleID uint64, ok bool) {
	p := hc.plans[mapID]
	if p == nil {
		return wire.ReadChunk{}, nil, 0, false
	}
	if len(p.chunks) == 0 || p.chunks[0].Offset != offset {
		delete(hc.plans, mapID)
		if p.pending == 0 && !p.released {
			p.released = true
			staleID = p.leaseID
		}
		return wire.ReadChunk{}, nil, staleID, false
	}
	entry = p.chunks[0]
	p.chunks = p.chunks[1:]
	p.pending++
	if len(p.chunks) == 0 {
		// Exhausted: detach now so the next request for this map sends a
		// fresh read-capable wire request. The lease releases when the
		// last in-flight chunk completes.
		delete(hc.plans, mapID)
	}
	return entry, p, 0, true
}

// detachPlan abandons a plan (READ fault, replacement by a newer
// manifest) and returns the lease to release if nothing is in flight.
func (hc *hostConn) detachPlan(p *readPlan) uint64 {
	if hc.plans[p.mapID] == p {
		delete(hc.plans, p.mapID)
	}
	if p.pending == 0 && !p.released {
		p.released = true
		return p.leaseID
	}
	return 0
}

// planDone retires one in-flight chunk and returns the lease to release
// when the plan is drained or abandoned with nothing else in flight.
func (hc *hostConn) planDone(p *readPlan) uint64 {
	p.pending--
	if p.pending == 0 && hc.plans[p.mapID] != p && !p.released {
		p.released = true
		return p.leaseID
	}
	return 0
}

// releaseLease eagerly retires a server-side lease. Best-effort: on a
// dying connection the send fails and the server's janitor collects the
// lease at its deadline instead.
func (hc *hostConn) releaseLease(ctx context.Context, id uint64) {
	if id == 0 {
		return
	}
	_ = hc.lease.Send(ctx, (&wire.LeaseRelease{LeaseID: id}).Encode())
}

// payload is one delivered chunk's bytes: the registered block a READ
// landed in (blk set; the merge decodes it in place), or a heap buffer
// from payloadPool that an eager chunk — or a READ the budget kept in its
// ring slot — was copied into. The chunk carries its own kind, so giving
// it back looks nothing up, and a heap buffer its pool box, so giving it
// back allocates nothing.
type payload struct {
	buf []byte
	blk *mrpool.Block
	box *[]byte
}

// release gives a chunk's buffer back once nothing reads it: the merge
// retired it, the fetcher closed, or nobody was left to deliver it to.
func (f *fetcher) release(pl payload) {
	switch {
	case pl.blk != nil:
		f.blocks.put(pl.blk)
	case pl.buf != nil:
		putPayload(pl)
	}
}

// payloadPool recycles heap chunk buffers: a supervisor copies an eager
// packet out of its ring slot into one, and the reduce side returns it
// once every record of the chunk has been consumed (stream.Iterator's
// spent-buffer rule) or the fetcher closes. READ chunks need none (payloadBlocks).
var payloadPool sync.Pool // of *[]byte

// payloadsOut counts chunk buffers — heap buffers and payload blocks —
// handed out and not yet given back: a fetcher that closes leaves it
// where it found it, which is what the payload-accounting tests hold
// every exit path to.
var payloadsOut atomic.Int64

// poisonReleasedPayloads makes putPayload and payloadBlocks.put scribble
// over buffers on release. Tests enable it to turn any record still
// aliasing a released chunk into visible corruption instead of a silent
// heisenbug.
var poisonReleasedPayloads atomic.Bool

func poison(buf []byte) {
	if poisonReleasedPayloads.Load() {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
}

// payloadCap is the capacity a chunk of n bytes is held in, heap buffer
// or registered block alike: a power of two from 4 KiB.
func payloadCap(n int) int {
	c := 4 << 10
	for c < n {
		c <<= 1
	}
	return c
}

// sizeClass numbers payloadCap's sizes from 0 (4 KiB).
func sizeClass(size int) int { return bits.TrailingZeros(uint(size)) - 12 }

func (f *fetcher) getPayload(n int) payload {
	payloadsOut.Add(1)
	if v := payloadPool.Get(); v != nil {
		box := v.(*[]byte)
		if cap(*box) >= n {
			f.cPoolHits.Add(1)
			return payload{buf: (*box)[:n], box: box}
		}
	}
	f.cPoolMisses.Add(1)
	buf := make([]byte, n, payloadCap(n))
	return payload{buf: buf, box: &buf}
}

func putPayload(pl payload) {
	payloadsOut.Add(-1)
	buf := pl.buf[:cap(pl.buf)]
	poison(buf)
	*pl.box = buf
	payloadPool.Put(pl.box)
}

// payloadBlocks is a fetcher's registered payload blocks (D21): a READ
// chunk lands in one, and the block is the chunk the merge decodes, so
// nothing copies it out of a ring slot. A released block goes on its
// size's LIFO list; a chunk takes the smallest free block that holds it,
// and only when none does is a block of the chunk's payloadCap carved, so
// a block pins about what its chunk needs. Carves are local-only, with no
// memory window: only the fetcher's own READs write into them.
type payloadBlocks struct {
	pool *mrpool.Pool
	mu   sync.Mutex
	free [][]*mrpool.Block // by sizeClass
}

// get returns a block of at least n > 0 bytes, or the carve's error:
// mrpool.ErrBudget once the device's registered-memory budget is spent.
func (l *payloadBlocks) get(n int) (*mrpool.Block, error) {
	size := payloadCap(n)
	var b *mrpool.Block
	l.mu.Lock()
	for c := sizeClass(size); c < len(l.free) && b == nil; c++ {
		if k := len(l.free[c]); k > 0 {
			b = l.free[c][k-1]
			l.free[c] = l.free[c][:k-1]
		}
	}
	l.mu.Unlock()
	if b == nil {
		var err error
		if b, err = l.pool.Alloc(size, "payload"); err != nil {
			return nil, err
		}
	}
	payloadsOut.Add(1)
	return b, nil
}

// put takes a block back once nothing can still write into it or read
// it: a READ's block after ReadSG has returned, a delivered one after the
// merge is done with it.
func (l *payloadBlocks) put(b *mrpool.Block) {
	payloadsOut.Add(-1)
	poison(b.Bytes())
	c := sizeClass(b.Len())
	l.mu.Lock()
	for len(l.free) <= c {
		l.free = append(l.free, nil)
	}
	l.free[c] = append(l.free[c], b)
	l.mu.Unlock()
}

// close frees every block back to the slab. The fetcher's Close calls it
// once every chunk has been given back, so each block is on a free list.
func (l *payloadBlocks) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, blocks := range l.free {
		for _, b := range blocks {
			b.Free()
		}
	}
	l.free = nil
}

// dialConn establishes one connection attempt: a lease on the device's
// shared endpoint to the host (dialed by the plane if absent) plus a
// bounce-buffer ring carved from the device's registered slab pool. The
// returned generation identifies the shared-connection incarnation even
// on failure, so health accounting can dedupe one sever across every
// fetcher that shared it.
func (f *fetcher) dialConn(ctx context.Context, p *hostPeer) (*hostConn, uint64, error) {
	host := p.host
	local := f.task.Local
	dev := local.Device()
	// A lease never has more than depth answers outstanding, one per slot.
	lease, gen, err := planeOf(local).acquire(ctx, host, f.depth, func(ctx context.Context) (*ucr.EndPoint, error) {
		return local.Fabric().Connect(ctx, dev, host, ServiceName)
	})
	if err != nil {
		return nil, gen, fmt.Errorf("core: connecting to %s: %w", host, err)
	}
	ring, err := mrpool.For(dev).AllocRemote(f.depth*f.slotSize, "ring")
	if err != nil {
		lease.Close(false, nil)
		return nil, gen, err
	}
	hc := &hostConn{lease: lease, gen: gen, ring: ring, slotSize: f.slotSize, lastActive: time.Now()}
	hc.pending, hc.free = p.connBooks(f.depth)
	return hc, gen, nil
}

// Reconnect backoff (D6): attempt n sleeps min(backoffBase << (n-1),
// backoffMax), jittered.
const (
	backoffBase = 2 * time.Millisecond
	backoffMax  = 200 * time.Millisecond
)

// peerLoop is the supervisor for one host: dial, run the connection
// until it fails or the fetcher shuts down, classify the failure,
// re-dial with exponential backoff + jitter, and re-issue the dead
// connection's in-flight requests on the fresh one. Transient failures
// consume the retry budget (mapred.rdma.connect.retries), both
// per-connection-attempt and per-request; exhaustion kills the peer and
// answers its requests with error chunks so segments escalate to
// RecoverMap — the pre-robustness behaviour, now the last resort.
func (f *fetcher) peerLoop(ctx context.Context, p *hostPeer) {
	defer f.wg.Done()
	counters := f.task.Local.Counters()
	attempt := 0 // consecutive failures since the last working connection
	everConnected := false
	idleClosed := false    // previous connection retired cleanly (idle)
	var orphans []chunkReq // re-issues carried across the reconnect
	for {
		if ctx.Err() != nil {
			return
		}
		// Liveness verdict beats the retry budget: a host the scheduler
		// decommissioned is not coming back on this job's timescale.
		if p.isLost() {
			f.killPeer(ctx, p, errTrackerLost, orphans)
			return
		}
		// Lazy dialing (D13): no connection exists until a segment
		// actually wants bytes from this host. The demand stays queued for
		// the connection.
		if len(orphans) == 0 && p.queued() == 0 {
			select {
			case <-p.wake:
			case <-p.lostCh:
			case <-ctx.Done():
				return
			}
			continue
		}
		// Blacklist admission: another fetcher on this node may already
		// have established that the host is dying. A loss notice ends
		// the wait; the loop top then kills the peer.
		if d := p.health.admissionDelay(); d > 0 {
			if !p.wait(ctx, d) {
				return
			}
			continue
		}
		hc, gen, err := f.dialConn(ctx, p)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			p.health.recordFailureGen(gen, counters)
			attempt++
			if p.isLost() || !transientErr(err) || attempt > f.connectRetries {
				f.killPeer(ctx, p, err, orphans)
				return
			}
			if !f.sleepBackoff(ctx, p, attempt) {
				return
			}
			continue
		}
		if everConnected && !idleClosed {
			f.cReconnects.Add(1)
		}
		everConnected = true
		idleClosed = false

		err = f.runConn(ctx, p, hc, &orphans)
		// The ring's window invalidates here: a late responder write
		// against a retired connection faults remotely and surfaces as a
		// counted stray, never as corruption of reused slab bytes.
		hc.ring.Free()
		if err == nil || ctx.Err() != nil {
			// runConn only returns without error on shutdown.
			return
		}
		// The orphans it never sent, then what it sent and was owed.
		reqs := hc.takePending(orphans)
		if errors.Is(err, errConnIdle) {
			// Clean idle retirement: no health hit, no backoff, and
			// re-issues (normally none — the conn was quiet) keep their
			// retry budget. Park at the loop top until the next demand.
			orphans = reqs
			idleClosed = true
			attempt = 0
			continue
		}
		if hc.progress {
			// The link carried data before dying: past failures are a
			// different incident, the streak restarts.
			attempt = 0
		}
		attempt++
		p.health.recordFailureGen(hc.gen, counters)

		// Each reclaimed request consumes one unit of its own retry budget.
		orphans = reqs[:0]
		for _, req := range reqs {
			req.retries++
			if int(req.retries) > f.connectRetries {
				req.seg.deliver(chunk{off: req.offset, err: fmt.Errorf("core: %s: retry budget exhausted: %w", p.host, err)})
				continue
			}
			f.cRetries.Add(1)
			orphans = append(orphans, req)
		}
		if p.isLost() || !transientErr(err) || attempt > f.connectRetries {
			f.killPeer(ctx, p, err, orphans)
			return
		}
		if !f.sleepBackoff(ctx, p, attempt) {
			return
		}
	}
}

// runConn runs one connection until it fails or ctx ends, as one event
// loop on the supervisor's goroutine. Each answer is handled as the
// device pump routes it to the lease (D25), a READ it calls for issued in
// place (D20). Once the last answer of a frame is handled (leaseMsg.more),
// the slots the frame gave back are refilled from the queue in one batch
// (D23), and a queued request takes a free slot as soon as it arrives.
// One ticker keeps the request-deadline and idle clocks: a quarter of the
// shorter window, at least a millisecond. orphans, re-issues from a
// previous connection, go out before the queue; those never sent stay in
// it. Returns nil on orderly shutdown, the first failure otherwise.
func (f *fetcher) runConn(ctx context.Context, p *hostPeer, hc *hostConn, orphans *[]chunkReq) error {
	window := f.reqTimeout
	if f.connIdle > 0 && f.connIdle < window {
		window = f.connIdle
	}
	tick := time.NewTicker(max(window/4, time.Millisecond))
	defer tick.Stop()
	// Refilling mid-frame would send the first slot back alone, and the
	// batch would shrink to one request a SEND as the fetch goes on.
	midFrame := false
	f.send(ctx, p, hc, orphans)
	for hc.err == nil {
		select {
		case lm := <-hc.lease.msgs:
			hc.lastActive = time.Now()
			f.answer(ctx, p, hc, lm)
			if midFrame = lm.more; !midFrame {
				f.send(ctx, p, hc, orphans)
			}
		case <-hc.lease.done:
			// Answers routed before the connection died are handled first.
			if len(hc.lease.msgs) == 0 {
				hc.abort(fmt.Errorf("core: response from %s: %w", p.host, hc.lease.sc.connErr()))
			}
		case <-p.wake:
			if !midFrame {
				f.send(ctx, p, hc, orphans)
			}
		case <-p.lostCh:
			hc.abort(errTrackerLost)
		case <-tick.C:
			// Not the tick's own time: a tick buffered while the loop was
			// blocked in a post would read early.
			f.checkConn(p, hc, time.Now(), len(*orphans))
		case <-ctx.Done():
			hc.lease.Close(false, nil)
			return nil
		}
	}
	// Idle retirement releases the lease but leaves the shared endpoint
	// alive for other fetchers; real failures kill it so every sharer
	// observes the sever at once.
	hc.lease.Close(!errors.Is(hc.err, errConnIdle), hc.err)
	return hc.err
}

// checkConn is the loop's tick. First the request deadline: any pending
// request older than mapred.rdma.request.timeout fails the connection, so
// a silent peer cannot pin a bounce-buffer slot (and its segment)
// forever. Then the idle clock: a connection that has carried no traffic
// for mapred.rdma.conn.idle.timeout (0: never) retires cleanly
// (errConnIdle) — the lease releases, the ring unpins, and the supervisor
// parks until the next demand, the lazy-dial arm of D13's connection
// cache.
func (f *fetcher) checkConn(p *hostPeer, hc *hostConn, now time.Time, orphans int) {
	for i := range hc.pending {
		if hc.pending[i].busy() && now.Sub(hc.pending[i].issued) > f.reqTimeout {
			f.pastDeadline(p, hc)
			return
		}
	}
	switch {
	case f.connIdle <= 0:
	case hc.inFlight > 0 || orphans > 0 || p.queued() > 0:
		hc.lastActive = now
	case now.Sub(hc.lastActive) >= f.connIdle:
		hc.abort(errConnIdle)
	}
}

// pastDeadline fails the connection for a request not answered within
// mapred.rdma.request.timeout.
func (f *fetcher) pastDeadline(p *hostPeer, hc *hostConn) {
	f.cDeadline.Add(1)
	hc.abort(fmt.Errorf("core: %s: %w (%v)", p.host, errRequestDeadline, f.reqTimeout))
}

// killPeer marks the host permanently dead for this fetcher and answers
// every orphaned and future request with an error chunk — the segments'
// loadChunk turns those into RecoverMap escalations. The loop keeps the
// supervisor goroutine draining until the fetcher shuts down so enqueues
// never block against a dead peer.
func (f *fetcher) killPeer(ctx context.Context, p *hostPeer, cause error, orphans []chunkReq) {
	err := fmt.Errorf("core: host %s declared dead: %w", p.host, cause)
	for _, req := range orphans {
		req.seg.deliver(chunk{off: req.offset, err: err})
	}
	for {
		req, ok := p.next(ctx)
		if !ok {
			return
		}
		req.seg.deliver(chunk{off: req.offset, err: err})
	}
}

// sleepBackoff sleeps the exponential-backoff delay for the given
// attempt: min(backoffBase << (attempt-1), backoffMax) with jitter in
// [d/2, d), so a fleet of fetchers re-dialing a restarted tracker does not
// stampede. Returns false if ctx ended during the sleep.
func (f *fetcher) sleepBackoff(ctx context.Context, p *hostPeer, attempt int) bool {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	half := d / 2
	return p.wait(ctx, half+time.Duration(rand.Int63n(int64(half)+1)))
}

// wait is the supervisor's one sleep, for blacklist admission and for
// backoff alike: it lasts d, or until a liveness loss-notice for the
// peer, after which the loop top kills the peer. Returns false if ctx
// ended first.
func (p *hostPeer) wait(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.lostCh:
		return true
	case <-ctx.Done():
		return false
	}
}

// send claims a free slot for each waiting request, an orphan before the
// queue's, and puts every request that needs the wire in one SEND (D23):
// a wire.Batch, bare when it holds one. With every slot busy and requests
// still waiting, the fabric is saturated at the configured depth: the
// slot-stall counter records the stall once, and the span of the request
// that ends it the time it waited for a slot.
func (f *fetcher) send(ctx context.Context, p *hostPeer, hc *hostConn, orphans *[]chunkReq) {
	batch := &p.batch
	reqSize := (&wire.DataRequest{JobID: f.task.Job.ID}).EncodedSize()
	// Room for a request per slot, each behind its two-byte length: the
	// one allocation the connection's loop makes, kept by the peer.
	if room := min(1+f.depth*(2+reqSize), ucr.MaxMessage); batch.Cap() < room {
		batch.Reset(make([]byte, 0, room))
	}
	for full := true; full && hc.err == nil; {
		full = false
		batch.Reset(nil)
		for len(hc.free) > 0 && hc.err == nil {
			if !batch.Fits(reqSize, ucr.MaxMessage) {
				full = true
				break
			}
			var req chunkReq
			if len(*orphans) > 0 {
				req, *orphans = (*orphans)[0], (*orphans)[1:]
			} else if r, ok := p.pop(); ok {
				req = r
			} else {
				break
			}
			var slotWait time.Duration
			if hc.stalled {
				hc.stalled = false
				if f.prof != nil {
					slotWait = time.Since(hc.stallStart)
				}
			}
			slot := hc.free[len(hc.free)-1]
			hc.free = hc.free[:len(hc.free)-1]
			f.issue(ctx, p, hc, batch, req, slot, slotWait)
		}
		frame, _ := batch.Frame()
		if frame == nil || hc.err != nil {
			// Every request claimed was READ inline, or a READ failed the
			// connection: the batch's requests stay in their slots.
			continue
		}
		// Counted before the send: the answers may be back, and the fetch
		// over, before Send returns.
		f.cReqMsgs.Add(1)
		start := time.Now()
		if err := hc.lease.Send(ctx, frame); err != nil {
			// The batch's requests stay in their slots: takePending
			// re-issues them on the next connection. (On shutdown nobody
			// re-issues, which is fine — the merge is going away too.)
			if ctx.Err() == nil {
				hc.abort(fmt.Errorf("core: request to %s: %w", p.host, err))
			}
			return
		}
		if hc.lastActive = time.Now(); hc.lastActive.Sub(start) > f.reqTimeout {
			// The SEND held the loop, and its clocks, past the deadline.
			f.pastDeadline(p, hc)
		}
	}
	if len(hc.free) == 0 && !hc.stalled && hc.err == nil && (len(*orphans) > 0 || p.queued() > 0) {
		hc.stalled = true
		f.cSlotStalls.Add(1)
		f.nSlotStalls.Add(1)
		if f.prof != nil {
			hc.stallStart = time.Now()
		}
	}
}

// issue books req in the slot send claimed for it. A request the host's
// live manifest already covers is READ into place here and sends nothing
// — the rendezvous payoff, one responder message per plan, not per chunk;
// doing it inline costs no depth, since the endpoint serialises every
// work request on its sendMu anyway (D20), and it never joins a batch.
// Any other request is stamped with the slot's tag and RDMA address and
// appended to the batch.
func (f *fetcher) issue(ctx context.Context, p *hostPeer, hc *hostConn, batch *wire.Batch, req chunkReq, slot uint32, slotWait time.Duration) {
	hc.pending[slot] = pendingSlot{req: req, issued: time.Now(), slotWait: slotWait}
	hc.inFlight++
	f.cOutPeak.Max(int64(hc.inFlight))
	f.prof.SlotOccupancy(hc.inFlight)
	if !req.noRead {
		entry, plan, staleID, hit := hc.planTake(int(req.seg.mapID), req.offset)
		hc.releaseLease(ctx, staleID)
		if hit {
			f.executeRead(ctx, p, hc, readJob{slot: slot, entry: entry, plan: plan})
			return
		}
	}
	wreq := wire.DataRequest{
		JobID:      f.task.Job.ID,
		MapID:      req.seg.mapID,
		ReduceID:   int32(f.task.ReduceID),
		Offset:     req.offset,
		MaxBytes:   int32(hc.slotSize),
		MaxRecords: int32(f.kvPerPacket),
		RemoteAddr: hc.ring.Addr() + uint64(slot)*uint64(hc.slotSize),
		RKey:       hc.ring.RKey(),
		Tag:        hc.lease.Tag(slot),
	}
	if !req.noRead {
		// Always read-capable: the responder decides per request
		// whether to answer with a manifest or eagerly.
		wreq.Flags = wire.FlagFetchRead
	}
	batch.AddRequest(&wreq)
}

// answer handles one answer. An eager response's header is matched to
// its slot by tag (the payload was RDMA-written into that slot before the
// header was sent) and completed; for a manifest, chunk 0 is READ here.
// That READ cannot stall the device's receive pump, which routes answers
// for every lease on the device without waiting (D25): this lease's msgs
// channel holds depth answers, and at most depth requests — one per slot
// — are ever awaiting an answer.
//
// Serving errors marked Transient re-issue through the request's retry
// budget without tearing the connection down; fatal serving errors (the
// data is gone) deliver an error chunk, sending the segment to
// RecoverMap. Protocol violations abort the connection — the slot
// bookkeeping is unrecoverable, but the in-flight requests re-issue
// idempotently on the next one.
func (f *fetcher) answer(ctx context.Context, p *hostPeer, hc *hostConn, lm leaseMsg) {
	if lm.man != nil {
		job, err := hc.installPlan(ctx, lm.man)
		if err != nil {
			hc.abort(fmt.Errorf("core: %s: %w", p.host, err))
			return
		}
		f.executeRead(ctx, p, hc, job)
		return
	}
	resp := &lm.resp
	// The lease's sequence prefix routed the message here; the low
	// half-word is the ring slot.
	slot := resp.Tag & 0xffff
	switch {
	case !hc.owes(slot):
		hc.abort(fmt.Errorf("core: %s: %w: response with unknown slot tag %d", p.host, errProtocol, resp.Tag))
	case resp.Err == "" && (resp.Bytes < 0 || int(resp.Bytes) > hc.slotSize):
		// The request stays in its slot, so takePending re-issues it on
		// the next connection.
		hc.abort(fmt.Errorf("core: %s: %w: response claims %d bytes in a %d-byte slot", p.host, errProtocol, resp.Bytes, hc.slotSize))
	case resp.Err == "":
		f.complete(p, hc, slot, int(resp.Bytes), resp.EOF, nil)
	case resp.Transient:
		// The tracker could not serve this request right now but the
		// data exists; retry within budget instead of escalating.
		req := hc.finish(slot).req
		req.retries++
		if int(req.retries) > f.connectRetries {
			req.seg.deliver(chunk{off: req.offset, err: fmt.Errorf("core: tracker %s: %s (retry budget exhausted)", p.host, resp.Err)})
			return
		}
		f.cRetries.Add(1)
		p.enqueue(req)
	default:
		req := hc.finish(slot).req
		req.seg.deliver(chunk{off: req.offset, err: fmt.Errorf("core: tracker %s: %s", p.host, resp.Err)})
	}
}

// complete finishes the request in ring slot `slot` however its chunk
// arrived — RDMA-written by the responder ahead of its header, or READ by
// the loop — so a chunk is accounted in exactly one place, and frees the
// slot. A READ that landed in payload block blk is delivered as that
// block, uncopied: its bytes are the bytes the merge decodes. Otherwise
// the n payload bytes sitting in the slot are copied out into a pooled
// heap buffer. Either way the chunk is counted, spanned, and delivered to
// the owning segment. Delivery never blocks: a segment has at most one
// chunk in flight and a place for it.
func (f *fetcher) complete(p *hostPeer, hc *hostConn, slot uint32, n int, eof bool, blk *mrpool.Block) {
	ps := hc.finish(slot)
	var pl payload
	switch {
	case blk != nil:
		pl = payload{buf: blk.Bytes()[:n], blk: blk}
	case n > 0:
		pl = f.getPayload(n)
		start := int(slot) * hc.slotSize
		copy(pl.buf, hc.ring.Bytes()[start:start+n])
	}
	f.cBytes.Add(int64(n))
	f.cPackets.Add(1)
	f.cRecvBytes.Add(int64(n))
	f.nFetchBytes.Add(int64(n))
	f.nFetchChunks.Add(1)
	if !hc.progress {
		hc.progress = true
		p.health.recordSuccessGen(hc.gen)
	}
	req := ps.req
	ck := chunk{pl: pl, eof: eof, off: req.offset}
	if f.prof != nil {
		ck.span = &obs.FetchSpan{
			Host: p.host, Reduce: f.task.ReduceID, MapID: int(req.seg.mapID),
			Offset: req.offset, Bytes: n, Retries: int(req.retries),
			Enqueued: req.enq, Sent: ps.issued, Received: time.Now(),
			SlotWait: ps.slotWait,
		}
	}
	req.seg.deliver(ck)
}

// installPlan accepts a descriptor manifest answering the request in
// slot m.Tag and returns chunk 0's READ for the loop to issue; the rest
// become the host's live plan for that map, consumed by planTake as the
// segment walks forward. The request stays in its slot — the READ, not a
// wire response, completes it. Returns an error (a protocol violation
// aborting the connection) when the manifest does not match what the
// slot asked for.
func (hc *hostConn) installPlan(ctx context.Context, m *wire.ReadManifest) (readJob, error) {
	slot := m.Tag & 0xffff
	if !hc.owes(slot) {
		return readJob{}, fmt.Errorf("%w: manifest for unknown slot tag %d", errProtocol, m.Tag)
	}
	req := hc.pending[slot].req
	mapID := req.seg.mapID
	if len(m.Chunks) == 0 || m.Chunks[0].Offset != req.offset || m.MapID != mapID {
		return readJob{}, fmt.Errorf("%w: manifest does not cover map %d offset %d", errProtocol, mapID, req.offset)
	}
	plan := &readPlan{mapID: int(mapID), leaseID: m.LeaseID, rkey: m.RKey, chunks: m.Chunks[1:], pending: 1}
	stale := hc.plans[plan.mapID]
	if len(plan.chunks) > 0 {
		if hc.plans == nil {
			hc.plans = make(map[int]*readPlan)
		}
		hc.plans[plan.mapID] = plan
	}
	if stale != nil {
		hc.releaseLease(ctx, hc.detachPlan(stale))
	}
	return readJob{slot: slot, entry: m.Chunks[0], plan: plan}, nil
}

// executeRead issues the RDMA READs for one manifest chunk — the
// responder is not involved at all. Remote ranges are record-boundary
// descriptors over the pinned cache region; contiguous ones coalesce into
// a single READ. The local destination, filled front to back, is a
// payload block from the fetcher's free list, which complete delivers as
// the chunk itself (D21). When the device's registered-memory budget
// refuses the block, it is the slot, and the chunk completes the way an
// RDMA-written response does, copied out. Waiting for a block instead
// could deadlock: the merge may hold 2 × maps + 1 chunk buffers before it
// can retire one.
func (f *fetcher) executeRead(ctx context.Context, p *hostPeer, hc *hostConn, job readJob) {
	entry := job.entry
	n := int(entry.Bytes)
	total := 0
	for _, r := range entry.Ranges {
		total += int(r.Len)
	}
	if n < 0 || n > hc.slotSize || total != n {
		hc.abort(fmt.Errorf("core: %s: %w: manifest chunk claims %d bytes, ranges sum %d (slot %d)",
			p.host, errProtocol, n, total, hc.slotSize))
		return
	}
	dst, base := hc.ring.MR(), hc.ring.Offset()+int(job.slot)*hc.slotSize
	var blk *mrpool.Block
	if n > 0 {
		if b, err := f.blocks.get(n); err == nil {
			blk = b
			dst, base = b.MR(), b.Offset()
		}
	}
	reads := 0
	var sgl [1]verbs.SGE
	for i, local := 0, 0; i < len(entry.Ranges); {
		// Coalesce remote-contiguous descriptors: one READ per span.
		addr := entry.Ranges[i].Addr
		span := int(entry.Ranges[i].Len)
		i++
		for i < len(entry.Ranges) && entry.Ranges[i].Addr == addr+uint64(span) {
			span += int(entry.Ranges[i].Len)
			i++
		}
		sgl[0] = verbs.SGE{MR: dst, Offset: base + local, Length: span}
		if err := hc.lease.ReadSG(ctx, sgl[:], addr, job.plan.rkey); err != nil {
			// ReadSG returns only after the READ has executed, so the
			// fabric is done with the block. Only from here may the block
			// be reused.
			if blk != nil {
				f.blocks.put(blk)
			}
			f.readFailed(ctx, p, hc, job, err)
			return
		}
		local += span
		reads++
	}
	hc.lastActive = time.Now()
	f.cReadIssued.Add(int64(reads))
	f.cReadBytes.Add(int64(n))
	f.cZeroCopyHits.Add(1)
	f.nReadIssued.Add(int64(reads))
	hc.releaseLease(ctx, hc.planDone(job.plan))
	f.complete(p, hc, job.slot, n, entry.EOF, blk)
}

// readFailed handles a failed READ. A remote-access fault means the
// lease expired or the entry was evicted and its region deregistered —
// the bytes were never written, nothing is corrupt — so the request
// is re-issued for an eager response (noRead) without consuming retry
// budget, and the slot is freed. Anything else is a transport failure:
// abort the connection and let the supervisor re-issue everything
// idempotently.
func (f *fetcher) readFailed(ctx context.Context, p *hostPeer, hc *hostConn, job readJob, err error) {
	if ctx.Err() != nil {
		// Shutdown: the request stays in its slot, and nobody re-issues it.
		return
	}
	f.cReadFallbacks.Add(1)
	hc.releaseLease(ctx, hc.detachPlan(job.plan))
	hc.releaseLease(ctx, hc.planDone(job.plan))
	if !errors.Is(err, ucr.ErrRemoteAccess) {
		hc.abort(fmt.Errorf("core: read from %s: %w", p.host, err))
		return
	}
	req := hc.finish(job.slot).req
	req.noRead = true
	p.enqueue(req)
}

// fetcher is the ReduceTask-side pipeline: RDMACopier connections and the
// segments they fill, merged by the stream.Iterator the reduce function
// pulls (the paper's DataToReduceQueue is that call; DESIGN.md D17).
type fetcher struct {
	task        mapred.ReduceTaskInfo
	kvPerPacket int // packRule's record cap (D4)
	slotSize    int // packRule's hard limit: the most a chunk may carry
	depth       int

	// Robustness policy (see DESIGN.md D6).
	connectRetries int
	reqTimeout     time.Duration

	// Quiet connections retire after connIdle (0 = never, D13).
	connIdle time.Duration

	// prof is the job's shuffle profile, or nil when profiling is off —
	// the nil is the disabled fast path: every time.Now() and span
	// allocation on the copier hot path is gated on it.
	prof *obs.JobProfile
	// tr is the job's lifecycle trace (nil = tracing off). Fetch X
	// events and the merge span are gated on it.
	tr *obs.JobTrace

	// Pre-resolved counter handles: the supervisors increment these per
	// packet, so they skip the registry's name lookup.
	cRetries       *obs.Counter
	cReconnects    *obs.Counter
	cDeadline      *obs.Counter
	cSlotStalls    *obs.Counter
	cReqMsgs       *obs.Counter // request SENDs: one per batch
	cBytes         *obs.Counter // shuffle.rdma.bytes: delivered, either way
	cPackets       *obs.Counter
	cRecvBytes     *obs.Counter
	cOutPeak       *obs.Counter
	cReadIssued    *obs.Counter
	cReadBytes     *obs.Counter
	cReadFallbacks *obs.Counter
	cZeroCopyHits  *obs.Counter // chunks READ: no responder copy
	cPoolHits      *obs.Counter
	cPoolMisses    *obs.Counter
	// Node-local handles (the reducer node's own registry, shipped on
	// heartbeats); nil no-ops when cluster telemetry is off.
	nFetchBytes  *obs.Counter
	nFetchChunks *obs.Counter
	nReadIssued  *obs.Counter
	nSlotStalls  *obs.Counter

	// arena is the memory below, taken from the arena free list at Fetch
	// and given back at Close (D26).
	arena *fetchArena
	// peers is the host index, set before Fetch starts a goroutine.
	peers map[string]*hostPeer

	// it is the merged stream Fetch returns (nil until then); segments
	// retire drained chunk buffers to it.
	it *stream.Iterator[payload]
	// blocks is where READ chunks land; Close frees it.
	blocks payloadBlocks
	// segs holds every segment, one per map, allocated at Fetch: the event
	// goroutine opens them in order, and Close reads them once that
	// goroutine has exited.
	segs []segment
	// Chunk delivery (segment.deliver / await): dmu guards each segment's
	// next chunk and waiting, the segment the merge is parked on, which
	// wake wakes.
	dmu     sync.Mutex
	waiting *segment
	wake    chan struct{}
	cancel  context.CancelFunc
	runCtx  context.Context // fetcher-lifetime ctx; refills wait under it
	wg      sync.WaitGroup

	closeOnce sync.Once
}

func newFetcher(task mapred.ReduceTaskInfo) *fetcher {
	conf := task.Job.Conf
	rule := packRuleOf(conf, false)
	// The paper's mapred.reduce.parallel.copies governs reducer fetch
	// parallelism; on the RDMA path it is the ring depth.
	depth := max(int(conf.Int(config.KeyParallelCopies)), 1)
	prof := task.Local.ProfileFor(task.Job.ID)
	c := task.Local.Counters()
	f := &fetcher{
		task:           task,
		kvPerPacket:    rule.maxRecords,
		slotSize:       rule.hard,
		depth:          depth,
		connectRetries: int(conf.Int(config.KeyRDMAConnectRetries)),
		reqTimeout:     time.Duration(conf.Int(config.KeyRDMARequestTimeout)) * time.Millisecond,
		connIdle:       time.Duration(conf.Int(config.KeyRDMAConnIdleTimeout)) * time.Millisecond,
		prof:           prof,
		wake:           make(chan struct{}, 1),
	}
	f.cRetries = c.Handle("shuffle.rdma.retries")
	f.cReconnects = c.Handle("shuffle.rdma.reconnects")
	f.cDeadline = c.Handle("shuffle.rdma.deadline.exceeded")
	f.cSlotStalls = c.Handle("shuffle.rdma.slot.stalls")
	f.cReqMsgs = c.Handle("shuffle.rdma.request.msgs")
	f.cBytes = c.Handle("shuffle.rdma.bytes")
	f.cPackets = c.Handle("shuffle.rdma.packets")
	f.cRecvBytes = c.Handle("shuffle.rdma.recv.bytes")
	f.cOutPeak = c.Handle("shuffle.rdma.outstanding.peak")
	f.cReadIssued = c.Handle("shuffle.rdma.read.issued")
	f.cReadBytes = c.Handle("shuffle.rdma.read.bytes")
	f.cReadFallbacks = c.Handle("shuffle.rdma.read.fallbacks")
	f.cZeroCopyHits = c.Handle("shuffle.rdma.zerocopy.hits")
	f.cPoolHits = c.Handle("shuffle.rdma.payload.pool.hits")
	f.cPoolMisses = c.Handle("shuffle.rdma.payload.pool.misses")
	f.blocks.pool = mrpool.For(task.Local.Device())
	f.tr = task.Local.TraceFor(task.Job.ID)
	nreg := task.Local.NodeRegistry()
	f.nFetchBytes = nreg.Counter("node.fetch.bytes")
	f.nFetchChunks = nreg.Counter("node.fetch.chunks")
	f.nReadIssued = nreg.Counter("node.read.issued")
	f.nSlotStalls = nreg.Counter("node.slot.stalls")
	return f
}

// Fetch implements mapred.ReduceFetcher.
func (f *fetcher) Fetch(ctx context.Context) (kv.Iterator, error) {
	if f.it != nil {
		return nil, errors.New("core: Fetch called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	f.runCtx = ctx
	var window func() func()
	if f.prof != nil || f.tr != nil {
		window = f.mergeWindow
	}
	f.arena = arenas.get()
	f.it = &f.arena.it
	f.it.Reset(ctx, f.task.Job.Comparator, f.release, window)

	// The shuffle window for this reduce opens now; deliveries extend it.
	// Its open edge is also the TTFB origin.
	if f.prof != nil {
		f.prof.Mark(obs.PhaseShuffle, f.task.ReduceID, time.Now())
	}

	// "Initially, RDMACopier sends end point information to RDMAListener
	// in TaskTracker to establish the connection ... to all available
	// TaskTrackers." Dialing is asynchronous — a tracker that is down at
	// fetch start is retried with backoff by its supervisor instead of
	// failing the whole reduce up front.
	f.segs = f.arena.segments(f.task.Job.NumMaps)
	f.peers = f.arena.hostPeers(f, f.task.Hosts)
	for _, p := range f.peers {
		f.wg.Add(1)
		go f.peerLoop(ctx, p)
	}

	// Liveness watcher: loss announcements from the cluster's heartbeat
	// detector fast-fail the named host's peer — the copier stops
	// burning deadlines and reconnect budget against a decommissioned
	// tracker and escalates straight to map recovery.
	if f.task.Losses != nil {
		lossCh, unsub := f.task.Losses.Subscribe()
		lostNotices := f.task.Local.Counters().Handle("shuffle.rdma.lost.notices")
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer unsub()
			for {
				select {
				case host, ok := <-lossCh:
					if !ok {
						return
					}
					if p := f.peers[host]; p != nil && p.markLost() {
						lostNotices.Add(1)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.it.Gather(f.task.Events, f.task.Job.NumMaps, f.openSegment)
	}()
	// Streaming iterator: reduce overlaps shuffle+merge.
	return f.it, nil
}

// openSegment starts streaming one completed map's partition: its
// first-chunk request goes out as the event arrives.
func (f *fetcher) openSegment(ev mapred.MapEvent) (kv.Iterator, error) {
	p := f.peers[ev.Host]
	if p == nil {
		return nil, fmt.Errorf("core: map event from unknown host %s", ev.Host)
	}
	if len(f.segs) == cap(f.segs) {
		// Growing segs would move the segments the supervisors deliver into.
		return nil, fmt.Errorf("core: map event %d past the job's %d maps", ev.MapID, cap(f.segs))
	}
	f.segs = append(f.segs, segment{mapID: int32(ev.MapID), peer: p, f: f})
	seg := &f.segs[len(f.segs)-1]
	seg.request(0)
	return seg, nil
}

// mergeWindow opens this reduce's merge window and returns what closes
// it. The window spans priority-queue priming (the first Next, once every
// map is in: "while receiving these key-value pairs from all map
// locations, a ReduceTask now merges all these data to build up a
// Priority Queue") through the last extracted record; profiling it against
// the shuffle window is what measures the paper's shuffle/merge overlap.
// The merge runs inside the reduce slot's goroutine but keeps its own
// trace lane, so the two spans read side by side.
func (f *fetcher) mergeWindow() func() {
	start := time.Now()
	if f.prof != nil {
		f.prof.Mark(obs.PhaseMerge, f.task.ReduceID, start)
	}
	return func() {
		end := time.Now()
		if f.prof != nil {
			f.prof.Mark(obs.PhaseMerge, f.task.ReduceID, end)
		}
		if f.tr != nil {
			f.tr.Span(f.task.Local.Host(), fmt.Sprintf("merge r%d", f.task.ReduceID),
				obs.CatMerge, fmt.Sprintf("merge r%d@%d", f.task.ReduceID, f.task.Attempt),
				start, end, nil)
		}
	}
}

// Close implements mapred.ReduceFetcher, after the consumer's last Next.
// Cancellation unwinds each peer's supervisor, which releases its
// endpoint lease and frees its slab-carved ring before exiting; waiting
// on the group is what makes slab reuse safe across fetcher lifetimes,
// and what lets the chunk buffers still out — retired, being walked or
// delivered ahead — be given back, and every payload block then be freed
// to the slab.
func (f *fetcher) Close() error {
	f.closeOnce.Do(func() {
		if f.cancel != nil {
			f.cancel()
		}
		f.wg.Wait()
		if f.it != nil {
			f.it.Close()
		}
		for i := range f.segs {
			f.segs[i].drop()
		}
		f.blocks.close()
		if f.arena != nil {
			f.arena.release(f)
			arenas.put(f.arena)
			f.arena, f.segs, f.peers = nil, nil, nil
		}
	})
	return nil
}
