package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/obs"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/storage"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// ServiceName is the UCR service the RDMAListener registers on each
// TaskTracker's device.
const ServiceName = "mr-shuffle"

// trackerServer is the TaskTracker-side assembly of Figure 2's new
// components: RDMAListener (accept loop) → one RDMAReceiver per
// connection, which also responds: it serves its end-point's requests in
// arrival order, at most mapred.rdma.responder.threads of them in service
// tracker-wide (the RDMAResponder pool, D19), backed by the
// MapOutputPrefetcher + PrefetchCache.
type trackerServer struct {
	tt         *mapred.TaskTracker
	listener   *ucr.Listener
	cache      *PrefetchCache
	prefetcher *MapOutputPrefetcher
	cacheOn    bool
	rule       packRule // D4; the cache cuts the runs it admits by it

	// Rendezvous half of the fetch protocol (D9): a read-capable request
	// against a cache-resident, registered run is answered with a
	// descriptor manifest and the copier pulls the payload by RDMA READ —
	// no responder CPU touches the bytes. Leases bound how long published
	// descriptors pin cache memory.
	leaseTTL time.Duration
	leases   *leaseTable

	// inService holds one token per request being served: its capacity is
	// the RDMAResponder pool size (D19).
	inService chan struct{}

	// Pre-resolved handles for the counters every request moves, so serving
	// skips the registry's lock and name lookup.
	cBusyNS    *obs.Counter // shuffle.rdma.responder.busy.ns
	cFallbacks *obs.Counter // shuffle.rdma.zerocopy.fallbacks
	cStageOut  *obs.Counter // shuffle.rdma.stage.outstanding
	cManifests *obs.Counter // shuffle.rdma.read.manifests
	// cAnswerMsgs is shuffle.rdma.answer.msgs: answer SENDs, one per frame.
	cAnswerMsgs *obs.Counter
	// Node-local serving counters (heartbeat-shipped telemetry); nil
	// no-op handles when the plane is off.
	nServedReqs  *obs.Counter
	nServedBytes *obs.Counter

	// mrp is the device's slab MR pool (D13): staging regions, response
	// headers, and cache bodies all carve out of it, so the tracker's
	// pinned bytes are budgeted and attributed in one accountant instead
	// of scattered across per-subsystem sync.Pools of registrations.
	mrp *mrpool.Pool

	// hdrBlks and stageBlks recycle the blocks answers are encoded into
	// and eager chunks are staged in (D26); Close frees what they hold.
	hdrBlks   blockList
	stageBlks blockList

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	endpoints []*ucr.EndPoint
	closed    bool
}

func startTrackerServer(tt *mapred.TaskTracker, e *Engine) (*trackerServer, error) {
	conf := tt.Conf()
	l, err := tt.Fabric().Listen(tt.Device(), ServiceName)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	responders := int(conf.Int(config.KeyResponderThreads))
	s := &trackerServer{
		tt:        tt,
		listener:  l,
		cache:     NewPrefetchCache(conf.Int(config.KeyPrefetchCacheCap), conf.Get(config.KeyCachePriorityMode), tt.Counters()),
		cacheOn:   e.cache && conf.Bool(config.KeyCachingEnabled),
		rule:      packRuleOf(conf, e.sizeAware),
		leaseTTL:  time.Duration(conf.Int(config.KeyRDMAReadLeaseTimeout)) * time.Millisecond,
		leases:    newLeaseTable(),
		inService: make(chan struct{}, responders),
		ctx:       ctx,
		cancel:    cancel,
	}
	// D13: every registration on this tracker goes through the device's
	// slab pool, under one budget and one set of gauges.
	s.mrp = mrpool.For(tt.Device())
	// At most one block of each list is out per request in service.
	s.hdrBlks = blockList{pool: s.mrp, class: "header", keep: responders + 1}
	s.stageBlks = blockList{pool: s.mrp, class: "stage", keep: responders + 1}
	s.mrp.Configure(conf.Int(config.KeyRDMAMRBudget), conf.Int(config.KeyRDMAMRSlabBytes))
	s.mrp.SetCounters(tt.Counters())
	// D12: per-job registered-memory quota — one tenant's churn cannot
	// evict the whole cluster cache (0 keeps the shared free-for-all).
	s.cache.SetJobQuota(conf.Int(config.KeyJTCacheJobQuota))
	s.cache.rule = s.rule
	c := tt.Counters()
	s.cBusyNS = c.Handle("shuffle.rdma.responder.busy.ns")
	s.cFallbacks = c.Handle("shuffle.rdma.zerocopy.fallbacks")
	s.cStageOut = c.Handle("shuffle.rdma.stage.outstanding")
	s.cManifests = c.Handle("shuffle.rdma.read.manifests")
	s.cAnswerMsgs = c.Handle("shuffle.rdma.answer.msgs")
	s.nServedReqs = tt.NodeRegistry().Counter("node.served.requests")
	s.nServedBytes = tt.NodeRegistry().Counter("node.served.bytes")
	s.prefetcher = NewMapOutputPrefetcher(tt, s.cache, int(conf.Int(config.KeyPrefetchThreads)))
	if s.cacheOn {
		// Cache entries are registered at Put time so a manifest can
		// advertise them to the copier's READs straight from cache memory,
		// and map output is encoded into registered memory to begin with,
		// for the cache to adopt at commit (D24).
		s.cache.SetRegistrar(s.mrp)
		tt.SetRunAllocator(s.allocRun)
	}

	// RDMAListener: accept incoming copier connections, "adds the
	// connection to a pre-established queue, and starts an RDMAReceiver".
	s.wg.Add(1)
	go s.acceptLoop()

	if s.cacheOn {
		// Without the cache there is nothing to publish descriptors
		// against, so no lease is ever granted.
		s.wg.Add(1)
		go s.leaseJanitor()
	}
	return s, nil
}

// headerBlockBytes sizes the slab carve a receiver encodes its answer
// frame into: the largest message one SEND carries.
const headerBlockBytes = ucr.MaxMessage

func (s *trackerServer) acceptLoop() {
	defer s.wg.Done()
	for {
		ep, err := s.listener.Accept(s.ctx)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			ep.Close()
			return
		}
		s.endpoints = append(s.endpoints, ep)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.receiver(ep)
	}
}

// receiver is one RDMAReceiver and its end-point's RDMAResponder: it
// pulls frames off its end-point — a copier sends every request it has a
// slot for in one SEND (D23) — and serves each frame's requests in turn,
// holding one in-service token while it does (D19). Requests on one
// end-point are therefore served one at a time, in arrival order, so one
// frame's payload writes and answers never interleave with another's on
// the same peer. A stalled end-point holds only this goroutine and one
// token.
//
// Serving here never blocks the device's receive pump, which feeds every
// end-point on the device: the receiver reads with ep.Recv instead of
// installing a ucr.Handler, because serving waits on RDMA writes and on
// its token (D25). ep.msgs holds 1024 messages, and an end-point never
// has more requests in flight than ring depth × fetchers sharing it
// (plus one lease release per manifest), far below that.
//
// When the connection dies — the copier closed it, reconnected
// elsewhere, or the fabric severed it — the end-point is released
// immediately; reconnect churn from self-healing copiers must not
// accumulate dead endpoints (and their registered rings) until server
// shutdown. A malformed batch ends the connection too: none of its
// requests can be answered, and the copier re-issues them on a fresh one.
func (s *trackerServer) receiver(ep *ucr.EndPoint) {
	defer s.wg.Done()
	defer s.dropEndpoint(ep)
	a := &answers{s: s, ep: ep}
	var msgs [][]byte
	var req wire.DataRequest // every request of the connection decodes into it
	for {
		frame, err := ep.Recv(s.ctx)
		if err != nil {
			return // connection closed by copier or server shutdown
		}
		if msgs, err = wire.SplitBatch(frame, msgs[:0]); err != nil {
			s.tt.Counters().Add("shuffle.rdma.bad.requests", 1)
			return
		}
		if !s.serveFrame(a, &req, msgs) {
			return
		}
	}
}

// serveFrame serves one frame's messages in arrival order under one
// in-service token, and answers every request among them in one SEND:
// each eager payload is RDMA-written as its request is served, so all of
// them are in place before the answers go out. Each request is decoded
// into req, which keeps its job ID string while the connection's requests
// carry the same one. It returns false on server shutdown.
func (s *trackerServer) serveFrame(a *answers, req *wire.DataRequest, msgs [][]byte) bool {
	var t0 time.Time // set once the token is held, from the frame's first request on
	for _, msg := range msgs {
		if len(msg) > 0 && msg[0] == wire.TypeLeaseRelease {
			// Copiers retire drained or abandoned read plans eagerly so the
			// pin drops before the deadline; a release for an
			// already-expired lease is a harmless miss.
			if lr, err := wire.DecodeLeaseRelease(msg); err == nil {
				s.leases.release(lr.LeaseID)
			} else {
				s.tt.Counters().Add("shuffle.rdma.bad.requests", 1)
			}
			continue
		}
		if err := req.Decode(msg); err != nil {
			s.tt.Counters().Add("shuffle.rdma.bad.requests", 1)
			continue
		}
		if t0.IsZero() {
			select {
			case s.inService <- struct{}{}:
			case <-s.ctx.Done():
				return false
			}
			// Responder occupancy: wall time in service, answer SEND
			// included, the denominator of the READ arm's "responder CPU
			// per byte" claim. Two clock reads per frame, always on.
			t0 = time.Now()
			a.begin()
		}
		s.serve(a, req)
	}
	if !t0.IsZero() {
		a.end()
		s.cBusyNS.Add(time.Since(t0).Nanoseconds())
		<-s.inService
	}
	return true
}

// serve is one RDMAResponder turn: locate the data (PrefetchCache
// first), pack a chunk, RDMA-write it into the copier's buffer, and add
// the response header to the answers — or answer with a manifest the
// copier READs.
func (s *trackerServer) serve(a *answers, req *wire.DataRequest) {
	s.nServedReqs.Add(1)
	// The fetch protocol's one decision (D8): a read-capable request for a
	// run that is cache-resident and registered is answered with a
	// descriptor manifest (rendezvous — the copier READs the payload);
	// everything else is served eagerly below, which also owns all error
	// reporting.
	if s.cacheOn && req.Flags&wire.FlagFetchRead != 0 && s.serveManifest(a, req) {
		return
	}
	header, payload := s.buildResponse(req)
	if payload.blk != nil {
		// RDMAWrite returns only once the fabric is done with the staging
		// block (completed, or its QP destroyed), so the block goes back
		// to the slab before the header is sent: by the time the copier
		// sees the answer, nothing of it is still staged.
		err := a.ep.RDMAWrite(s.ctx, payload.sge(), req.RemoteAddr, req.RKey)
		payload.release()
		if err != nil {
			// The data exists — only the delivery failed. Transient tells
			// the copier to re-issue instead of re-running the map.
			header.Err = fmt.Sprintf("rdma write: %v", err)
			header.Transient = true
			header.Bytes, header.Records = 0, 0
		} else {
			s.nServedBytes.Add(int64(header.Bytes))
		}
	}
	a.header(&header)
}

// answers is the frame a receiver answers its requests in: the headers
// and manifests of the requests served since the last SEND, encoded in
// place into a registered header block — on the heap when the slab
// budget refuses one — and sent as one wire.Batch.
type answers struct {
	s      *trackerServer
	ep     *ucr.EndPoint
	blk    *mrpool.Block
	batch  wire.Batch
	sgl    [1]verbs.SGE
	leases []uint64 // granted to the frame's manifests
	// the manifest being built, encoded into the frame once complete
	chunks []wire.ReadChunk
	ranges [maxManifestChunks]wire.ReadRange
}

// begin starts a frame in a header block.
func (a *answers) begin() {
	if blk, err := a.s.hdrBlks.get(headerBlockBytes); err == nil {
		a.blk = blk
		a.batch.Reset(blk.Bytes())
		return
	}
	// Not the batch's own storage: that may be a block given back since.
	a.batch.Reset(make([]byte, 0, 512))
}

// end sends the frame and gives its header block back.
func (a *answers) end() {
	a.flush()
	if a.blk != nil {
		a.s.hdrBlks.put(a.blk)
		a.blk = nil
	}
}

// header adds an eager answer to the frame.
func (a *answers) header(h *wire.DataResponse) {
	a.room(h.EncodedSize())
	a.batch.AddResponse(h)
}

// manifest adds a rendezvous answer to the frame.
func (a *answers) manifest(m *wire.ReadManifest) {
	a.room(m.EncodedSize())
	a.batch.AddManifest(m)
	a.leases = append(a.leases, m.LeaseID)
}

// room sends the frame so far when an answer of n bytes would take it past
// the largest message a SEND carries. Every answer in it had its payload
// written before it was added, so an early SEND keeps that order.
func (a *answers) room(n int) {
	if a.batch.Count() > 0 && !a.batch.Fits(n, ucr.MaxMessage) {
		a.flush()
	}
}

// flush sends the frame, gather-sent from the header block when it is
// there, and starts the next one in the same storage. A failed SEND means
// the connection is dying: every lease the frame's manifests carried is
// dropped now rather than at its deadline, and the copier re-issues the
// requests after it reconnects.
func (a *answers) flush() {
	frame, start := a.batch.Frame()
	if frame == nil {
		return
	}
	// Counted before the send, as manifests are: the copier may act on
	// the answers before the SEND returns.
	a.s.cAnswerMsgs.Add(1)
	var err error
	if a.blk != nil && start+len(frame) <= a.blk.Len() {
		a.sgl[0] = verbs.SGE{MR: a.blk.MR(), Offset: a.blk.Offset() + start, Length: len(frame)}
		err = a.ep.SendSG(a.s.ctx, a.sgl[:])
	} else {
		// On the heap: no block, or one answer alone outgrew it.
		err = a.ep.Send(a.s.ctx, frame)
	}
	if err != nil {
		for _, id := range a.leases {
			a.s.leases.release(id)
		}
	}
	a.leases = a.leases[:0]
	if a.blk != nil {
		a.batch.Reset(a.blk.Bytes())
	} else {
		a.batch.Reset(nil)
	}
}

// stagedPayload is a registered staging buffer holding the packed chunk,
// or none when blk is nil.
// Responders copy the chunk from the (unregistered) cache entry into a
// slab-carved block and RDMA-write from there — the staging-buffer
// scheme RDMA middlewares use for data that is not pinned. The blocks are
// recycled by the server's stageBlks, and stay under the device budget.
type stagedPayload struct {
	blk *mrpool.Block
	n   int
	srv *trackerServer
}

func (sp *stagedPayload) sge() verbs.SGE {
	return verbs.SGE{MR: sp.blk.MR(), Offset: sp.blk.Offset(), Length: sp.n}
}

func (s *trackerServer) stage(data []byte) (stagedPayload, error) {
	blk, err := s.stageBlks.get(len(data))
	if err != nil {
		return stagedPayload{}, err
	}
	copy(blk.Bytes(), data)
	s.cStageOut.Add(1)
	return stagedPayload{blk: blk, n: len(data), srv: s}, nil
}

// release gives the staging block back. Every stage() is paired with
// exactly one release, in serve as soon as the RDMA write returns; the
// shuffle.rdma.stage.outstanding counter must therefore read zero once a
// request's header is out (asserted by the server tests).
func (sp *stagedPayload) release() {
	sp.srv.cStageOut.Add(-1)
	sp.srv.stageBlks.put(sp.blk)
}

// blockList is a server's free list of slab blocks of one mrpool class
// (D26): the header blocks answers are encoded into, or the staging
// blocks eager chunks are copied into. get takes the smallest idle block
// that holds n bytes and carves n only when none does, so a staging block
// pins what its chunk needs, as the slab rounds it. At most keep blocks
// wait — one per request in service, and one more — and when the list is
// full put keeps the larger of the block it is given and the smallest
// idle one, so the list pins at most keep blocks of the largest chunk
// served. Every mrpool Free re-coalesces the slab under the pool mutex,
// which is what a carve and free per answer cost.
type blockList struct {
	pool  *mrpool.Pool
	class string
	keep  int

	mu   sync.Mutex
	idle []*mrpool.Block
}

// get returns a block of at least n > 0 bytes, or the carve's error. A
// carve the registered-memory budget refuses is tried once more after the
// idle blocks are freed, so keeping them never refuses a carve that
// carving per answer would have made.
func (l *blockList) get(n int) (*mrpool.Block, error) {
	l.mu.Lock()
	best := -1
	for i, b := range l.idle {
		if b.Len() >= n && (best < 0 || b.Len() < l.idle[best].Len()) {
			best = i
		}
	}
	if best >= 0 {
		b := l.idle[best]
		last := len(l.idle) - 1
		l.idle[best], l.idle[last] = l.idle[last], nil
		l.idle = l.idle[:last]
		l.mu.Unlock()
		return b, nil
	}
	l.mu.Unlock()
	b, err := l.pool.Alloc(n, l.class)
	if errors.Is(err, mrpool.ErrBudget) && l.close() > 0 {
		b, err = l.pool.Alloc(n, l.class)
	}
	return b, err
}

// put takes a block back once the fabric is done with it.
func (l *blockList) put(b *mrpool.Block) {
	l.mu.Lock()
	if len(l.idle) < l.keep {
		l.idle = append(l.idle, b)
		b = nil
	} else {
		small := 0
		for i, ib := range l.idle {
			if ib.Len() < l.idle[small].Len() {
				small = i
			}
		}
		if l.idle[small].Len() < b.Len() {
			l.idle[small], b = b, l.idle[small]
		}
	}
	l.mu.Unlock()
	if b != nil {
		b.Free()
	}
}

// close frees every idle block to the slab and returns how many it freed.
func (l *blockList) close() int {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	for _, b := range idle {
		b.Free()
	}
	return len(idle)
}

// buildResponse is the eager half of the protocol: locate the run (cache
// memory on a hit, disk plus a priority re-cache on a miss), pack one
// chunk, and copy it into a registered staging block for the RDMA write.
// A payload without a block means the header alone is the answer (empty
// chunk or an error).
func (s *trackerServer) buildResponse(req *wire.DataRequest) (header wire.DataResponse, payload stagedPayload) {
	header = wire.DataResponse{
		MapID: req.MapID, ReduceID: req.ReduceID, Offset: req.Offset,
		// Echo the copier's slot tag so it can match this response to
		// the bounce-buffer slot the payload was written into.
		Tag: req.Tag,
	}
	if s.cacheOn {
		// The share of cache-on requests that paid the responder copy.
		s.cFallbacks.Add(1)
	}
	// fail reports a serving error the requester cannot fix by retrying
	// (missing or corrupt map output — the RecoverMap path).
	fail := func(err error) (wire.DataResponse, stagedPayload) {
		header.Err = err.Error()
		return header, stagedPayload{}
	}
	run, pin, err := s.lookup(CacheKey{JobID: req.JobID, MapID: int(req.MapID), Partition: int(req.ReduceID)})
	if err != nil {
		return fail(err)
	}
	var marks []chunkMark
	if pin != nil {
		defer pin.Release()
		marks = pin.marks
	}
	body, _, err := kv.RunBody(run)
	if err != nil {
		return fail(err)
	}
	res, err := s.rule.chunk(body, marks, req.Offset, int(req.MaxBytes), int(req.MaxRecords))
	if err != nil {
		return fail(err)
	}
	header.Bytes = int32(res.Bytes)
	header.Records = int32(res.Records)
	header.EOF = res.EOF
	if res.Bytes == 0 {
		return header, stagedPayload{}
	}
	payload, err = s.stage(body[req.Offset : req.Offset+int64(res.Bytes)])
	if err != nil {
		// Registration pressure, not data loss: the same request can
		// succeed once staging regions free up.
		header.Transient = true
		return fail(err)
	}
	return header, payload
}

// maxManifestChunks caps one manifest's plan, so a lease never covers an
// unbounded amount of future work.
const maxManifestChunks = 64

// maxManifestBytes caps one manifest's encoding, so that a manifest always
// fits an answer frame beside the frame's framing, however full the frame
// it is added to: room sends the frame first when it would not. Chunks
// are one range each, so maxManifestChunks of them take about half of it.
const maxManifestBytes = 4096

// serveManifest is the rendezvous half of the protocol: pin the cached
// run and answer the copier with a manifest of chunks from the requested
// offset, each one (rkey, addr, len) range it READs directly — the
// responder never touches a payload byte and sends exactly one message
// for the whole plan. The pin is held by a deadline-bounded lease until
// the copier releases it (or the janitor expires it). Returns false when
// the request cannot be served this way — cache miss, unregistered body
// (slab budget exhausted at Put), bad offset or corrupt framing — and the
// eager path takes over.
func (s *trackerServer) serveManifest(a *answers, req *wire.DataRequest) bool {
	key := CacheKey{JobID: req.JobID, MapID: int(req.MapID), Partition: int(req.ReduceID)}
	if !s.cache.Contains(key) {
		return false
	}
	pin, ok := s.cache.pin(key)
	if !ok {
		return false
	}
	start, end, _, err := kv.RunBodySpan(pin.data)
	if pin.blk == nil || err != nil {
		pin.Release()
		return false
	}
	// Descriptors advertise the entry's revocable window, not the raw slab
	// region: freeing the body (eviction past the last pin) invalidates
	// the window, so a READ under an expired lease faults instead of
	// observing whatever the slab reused those bytes for.
	m := wire.ReadManifest{
		MapID: req.MapID, ReduceID: req.ReduceID, Offset: req.Offset,
		Tag: req.Tag, RKey: pin.blk.RKey(), Chunks: a.chunks[:0],
	}
	// The window starts at the run, so body offsets rebase by start.
	body, base := pin.data[start:end], pin.blk.Addr()+uint64(start)
	offset := req.Offset
	for len(m.Chunks) < maxManifestChunks {
		res, err := s.rule.chunk(body, pin.marks, offset, int(req.MaxBytes), int(req.MaxRecords))
		if err != nil {
			if len(m.Chunks) == 0 {
				// Bad offset or corrupt framing on the very first chunk:
				// let the eager path report it.
				pin.Release()
				return false
			}
			break
		}
		i := len(m.Chunks)
		a.ranges[i] = wire.ReadRange{Addr: base + uint64(offset), Len: int32(res.Bytes)}
		m.Chunks = append(m.Chunks, wire.ReadChunk{
			Offset: offset, Bytes: int32(res.Bytes), Records: int32(res.Records), EOF: res.EOF,
			Ranges: a.ranges[i : i+1 : i+1],
		})
		offset += int64(res.Bytes)
		if res.EOF {
			break
		}
	}
	a.chunks = m.Chunks
	m.LeaseID = s.leases.grant(pin, s.leaseTTL)
	// Counted before the send, as the staging block is freed before the
	// header: the copier may act on the manifest before SendSG returns.
	s.cManifests.Add(1)
	a.manifest(&m)
	return true
}

// leaseJanitor expires read leases whose copiers went quiet: a dead or
// wedged peer must not pin cache memory (and its registration) forever.
func (s *trackerServer) leaseJanitor() {
	defer s.wg.Done()
	tick := s.leaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			if n := s.leases.expire(now); n > 0 {
				s.tt.Counters().Add("shuffle.rdma.read.lease.expired", int64(n))
				s.tt.Events().Append(obs.Event{Type: obs.EvLeaseExpired,
					Host: s.tt.Host(), Cause: fmt.Sprintf("%d read leases past TTL %v", n, s.leaseTTL)})
			}
		}
	}
}

// lookup resolves a partition for an eager response: PrefetchCache when
// enabled, or directly from disk. A hit comes back pinned — the caller
// releases pin once it has staged its chunk, since an eviction in between
// could otherwise free the block and let the slab carve its span for
// another writer. A miss is read from disk and handed, as read, to a
// priority re-cache.
func (s *trackerServer) lookup(key CacheKey) (run []byte, pin *cacheBody, err error) {
	if s.cacheOn {
		var ok bool
		if pin, ok = s.cache.pin(key); ok {
			return pin.data, pin, nil
		}
	}
	run, err = s.tt.MapOutput(key.JobID, key.MapID, key.Partition)
	if err == nil && s.cacheOn {
		// Miss: "TaskTracker fetches data directly from disk itself
		// without waiting for caching", then re-caches with priority.
		s.prefetcher.Demand(key, run)
	}
	return run, nil, err
}

// dropEndpoint closes a dead connection's end-point and forgets it, so
// copier reconnect churn does not accumulate endpoints until shutdown.
func (s *trackerServer) dropEndpoint(ep *ucr.EndPoint) {
	ep.Close()
	s.mu.Lock()
	for i, e := range s.endpoints {
		if e == ep {
			s.endpoints = append(s.endpoints[:i], s.endpoints[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// allocRun is the tracker's mapred.RunAllocator with caching on (D24): a
// map task encodes a final output run straight into a window-advertised
// slab block, which the store holds pinned — its reference is the body's
// first — until MapOutputReady hands it to the cache.
func (s *trackerServer) allocRun(name string, n int) ([]byte, storage.Pinned, error) {
	blk, err := s.mrp.AllocRemote(n, "cache")
	if err != nil {
		return nil, nil, err
	}
	body := &cacheBody{data: blk.Bytes(), blk: blk, store: s.tt.Store(), name: name}
	body.refs.Store(1)
	return body.data, body, nil
}

// MapOutputReady implements mapred.TrackerServer. It runs before the map
// is announced to reducers, so every partition the map encoded into
// registered memory is adopted by the cache — by reference, no copy —
// before anyone can ask for it (D24). The prefetcher reads and caches the
// rest. A closed server caches nothing more, as its stopped prefetcher
// would not.
func (s *trackerServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	if !s.cacheOn || s.ctx.Err() != nil {
		return
	}
	var heapRuns []CacheKey
	for r := 0; r < job.NumReduces; r++ {
		key := CacheKey{JobID: job.ID, MapID: mapID, Partition: r}
		body, ok := s.tt.Store().Owner(mapred.MapOutputKey(job.ID, mapID, r)).(*cacheBody)
		if !ok || !body.retain() {
			heapRuns = append(heapRuns, key)
			continue
		}
		if s.cache.adopt(key, body) {
			s.prefetcher.cPrefetched.Add(1)
		}
	}
	s.prefetcher.Prefetch(heapRuns)
}

// JobComplete implements mapred.TrackerServer: release cached data and
// queued prefetches for the job.
func (s *trackerServer) JobComplete(job mapred.JobInfo) {
	s.prefetcher.CancelJob(job.ID)
	s.cache.RemoveJob(job.ID)
}

// Close implements mapred.TrackerServer.
func (s *trackerServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Copy under the lock: receivers compact s.endpoints in place as
	// their connections die.
	eps := append([]*ucr.EndPoint(nil), s.endpoints...)
	s.mu.Unlock()
	s.cancel()
	s.listener.Close()
	for _, ep := range eps {
		ep.Close()
	}
	s.prefetcher.Close()
	s.wg.Wait()
	// Receivers are stopped, so nothing is in service: return the recycled
	// header and staging blocks to the slab so the MR accountant's leak
	// assertion sees a drained server.
	s.hdrBlks.close()
	s.stageBlks.close()
	// With receivers and the janitor stopped, no new leases can appear;
	// drop whatever pins remain so cache regions deregister.
	s.leases.drain()
	return nil
}
