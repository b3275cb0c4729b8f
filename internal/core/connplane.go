package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/stats"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// The connection plane (DESIGN.md D13) is the QP-explosion fix: instead
// of every fetcher dialing its own endpoint per remote TaskTracker — QPs
// scaling as O(reduce tasks × hosts) — each local device owns one
// connPlane that multiplexes every fetcher on the node over ONE shared
// endpoint per remote host. Leases partition the request tag space
// (lease sequence in the high 16 bits, ring slot in the low 16), so the
// D5 slot/ring protocol and the D6 retry machinery run unchanged on top.
// Connections are dialed lazily on first demand and cached LRU: at most
// mapred.rdma.conn.cache.max live endpoints per device, the
// least-recently-used idle one evicted first, and an idle-timeout sweep
// retires connections nobody has leased for a while. A connection with
// leases attached is never evicted — in-flight RDMA (including D9 READ
// leases) always finishes or fails on transport terms, not cache terms.

// defaultConnCacheMax and defaultConnIdle mirror the config defaults for
// planes used before any fetcher configures them.
const (
	defaultConnCacheMax = 16
	defaultConnIdle     = time.Second
)

// errConnEvicted is the cause recorded when the plane reclaims an idle
// connection. Never observed by a lease: only refs==0 conns are evicted.
var errConnEvicted = errors.New("core: connection evicted from cache")

var connPlanes sync.Map // map[*verbs.Device]*connPlane

// planeFor returns the device's connection plane, creating it on first
// use. One plane per device for the life of the process.
func planeFor(dev *verbs.Device) *connPlane {
	if p, ok := connPlanes.Load(dev); ok {
		return p.(*connPlane)
	}
	p, _ := connPlanes.LoadOrStore(dev, &connPlane{
		conns:  make(map[string]*sharedConn),
		maxFor: defaultConnCacheMax,
		idle:   defaultConnIdle,
		now:    time.Now,
	})
	return p.(*connPlane)
}

// connPlane is the per-device endpoint multiplexer and LRU cache.
type connPlane struct {
	mu     sync.Mutex
	conns  map[string]*sharedConn
	genSeq uint64
	maxFor int // LRU cap on cached connections
	idle   time.Duration
	now    func() time.Time

	counters *stats.Counters
}

// configure applies fetcher policy (last writer wins — fetchers on one
// node share one config in practice). Zero values leave settings as-is.
func (p *connPlane) configure(maxConns int, idle time.Duration, c *stats.Counters) {
	p.mu.Lock()
	if maxConns > 0 {
		p.maxFor = maxConns
	}
	if idle > 0 {
		p.idle = idle
	}
	if c != nil {
		p.counters = c
	}
	p.mu.Unlock()
}

func (p *connPlane) count(name string, d int64) {
	p.mu.Lock()
	c := p.counters
	p.mu.Unlock()
	if c != nil {
		c.Add(name, d)
	}
}

// open reports live (cached) connections — the sub-linear-scaling gauge
// the sim sweep and the plane tests assert on.
func (p *connPlane) open() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// acquire returns a lease on the shared connection to host, dialing it
// if absent (singleflight: concurrent acquirers share one dial). buf
// sizes the lease's delivery queue: every answer it can have outstanding
// (Frame never waits for room). The returned generation identifies
// the connection incarnation even when acquire fails — health accounting
// dedupes on it so one sever is charged once, not once per sharer.
func (p *connPlane) acquire(ctx context.Context, host string, buf int, dial func(context.Context) (*ucr.EndPoint, error)) (*connLease, uint64, error) {
	for {
		p.mu.Lock()
		sc := p.conns[host]
		created := false
		if sc == nil {
			p.genSeq++
			sc = &sharedConn{
				plane: p, host: host, gen: p.genSeq,
				ready:  make(chan struct{}),
				leases: make(map[uint32]*connLease),
			}
			sc.lastUse = p.now()
			p.conns[host] = sc
			created = true
		}
		p.mu.Unlock()

		if created {
			ep, err := dial(ctx)
			if err != nil {
				sc.dialErr = err
				close(sc.ready)
				p.mu.Lock()
				if p.conns[host] == sc {
					delete(p.conns, host)
				}
				p.mu.Unlock()
				return nil, sc.gen, err
			}
			// The handler is in place before any lease can send a request,
			// so every answer is routed on the device pump.
			sc.ep = ep
			ep.SetHandler(sc)
			close(sc.ready)
			p.count("shuffle.rdma.conn.opened", 1)
		} else {
			select {
			case <-sc.ready:
			case <-ctx.Done():
				return nil, sc.gen, ctx.Err()
			}
			if sc.dialErr != nil {
				// The dial we waited on failed; every waiter reports the
				// same error under the same generation.
				return nil, sc.gen, sc.dialErr
			}
		}

		sc.mu.Lock()
		if sc.dead {
			// Died between lookup and attach (or instantly after our own
			// dial): drop it and dial a fresh incarnation.
			sc.mu.Unlock()
			continue
		}
		if sc.nextSeq > 0xffff {
			// Tag space exhausted after 65536 leases: retire the
			// connection and start over. refs==0 is not guaranteed here,
			// so this kill can fail sharers — acceptable for a once-in-a-
			// process-lifetime event; they redial through their budget.
			sc.mu.Unlock()
			sc.kill(fmt.Errorf("core: connection to %s exhausted its lease tag space", host))
			continue
		}
		seq := sc.nextSeq
		sc.nextSeq++
		l := &connLease{sc: sc, seq: seq, msgs: make(chan leaseMsg, buf), done: make(chan struct{})}
		sc.leases[seq] = l
		sc.refs++
		sc.lastUse = p.now()
		sc.mu.Unlock()
		if !created {
			p.count("shuffle.rdma.conn.reused", 1)
		}
		p.enforceCap()
		return l, sc.gen, nil
	}
}

// enforceCap evicts least-recently-used idle connections until the cache
// fits. Connections with leases attached (or still dialing) are never
// victims; if every connection is busy the plane runs over cap until
// leases drain — correctness first, the cap is a memory bound, not a
// correctness bound.
func (p *connPlane) enforceCap() {
	var victims []*sharedConn
	p.mu.Lock()
	for len(p.conns) > p.maxFor {
		var oldest *sharedConn
		var oldestT time.Time
		for _, sc := range p.conns {
			select {
			case <-sc.ready:
			default:
				continue // still dialing: its creator is about to attach
			}
			sc.mu.Lock()
			idle := sc.refs == 0 && !sc.dead
			t := sc.lastUse
			sc.mu.Unlock()
			if !idle {
				continue
			}
			if oldest == nil || t.Before(oldestT) {
				oldest, oldestT = sc, t
			}
		}
		if oldest == nil {
			break
		}
		if !oldest.claimEvict() {
			// A lease attached (or the conn died) between the scan and the
			// claim: no longer a victim. Rescan — refs>0 skips it now.
			continue
		}
		delete(p.conns, oldest.host)
		victims = append(victims, oldest)
	}
	p.mu.Unlock()
	p.finishEvict(victims)
}

// sweepIdle retires connections nobody has leased for the idle timeout.
// Called opportunistically at every lease close — no janitor goroutine.
func (p *connPlane) sweepIdle() {
	var victims []*sharedConn
	p.mu.Lock()
	idle := p.idle
	if idle <= 0 {
		p.mu.Unlock()
		return
	}
	now := p.now()
	for host, sc := range p.conns {
		select {
		case <-sc.ready:
		default:
			continue
		}
		sc.mu.Lock()
		expired := !sc.dead && sc.refs == 0 && now.Sub(sc.lastUse) >= idle
		if expired {
			// Claim under the same sc.mu hold as the refs check: an
			// acquirer that attaches after this sees dead and redials.
			sc.dead = true
			sc.err = errConnEvicted
		}
		sc.mu.Unlock()
		if expired {
			delete(p.conns, host)
			victims = append(victims, sc)
		}
	}
	p.mu.Unlock()
	p.finishEvict(victims)
}

// claimEvict atomically re-validates idleness and marks the connection
// dead for eviction. The refs re-check under sc.mu closes the window
// between victim selection and teardown in which acquire() — which
// attaches leases under sc.mu only — could slip a lease onto a conn
// already chosen for eviction: either the lease attaches first and the
// claim fails, or the claim wins and the acquirer observes dead and
// dials a fresh incarnation. Either way no lease ever sees
// errConnEvicted. Caller holds p.mu (lock order: p.mu then sc.mu).
func (sc *sharedConn) claimEvict() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead || sc.refs != 0 {
		return false
	}
	sc.dead = true
	sc.err = errConnEvicted
	return true
}

// finishEvict closes the endpoints of claimed victims. Claiming
// guaranteed refs==0, so there are no leases to wake — only the
// endpoint to release.
func (p *connPlane) finishEvict(victims []*sharedConn) {
	for _, sc := range victims {
		if sc.ep != nil {
			sc.ep.Close()
		}
		p.count("shuffle.rdma.conn.evicted", 1)
	}
}

// sharedConn is one live endpoint to a remote host, shared by every
// lease-holding fetcher on the device. It is the endpoint's ucr.Handler:
// answers are routed on the device's receive pump, by no goroutine of
// the connection's own.
type sharedConn struct {
	plane *connPlane
	host  string
	gen   uint64

	ready   chan struct{} // closed once the dial settles
	ep      *ucr.EndPoint // nil iff dialErr is set
	dialErr error

	// Frame's scratch: only the device pump touches it.
	split   [][]byte
	answers []leaseMsg

	mu      sync.Mutex
	refs    int
	nextSeq uint32
	leases  map[uint32]*connLease
	lastUse time.Time
	dead    bool
	err     error
}

// kill removes the connection from the plane, wakes every lease (their
// Recv returns the cause) and closes the endpoint. Safe to call multiple
// times.
func (sc *sharedConn) kill(cause error) {
	if sc.drop(cause) {
		sc.ep.Close()
	}
}

// fail is kill on the device pump, which must not wait: Close waits out
// any work request in progress on the QP (a READ parked in the fabric).
func (sc *sharedConn) fail(cause error) {
	if sc.drop(cause) {
		go sc.ep.Close()
	}
}

// drop removes the connection from the plane, marks it dead and wakes
// every lease, reporting whether this call did so.
func (sc *sharedConn) drop(cause error) bool {
	p := sc.plane
	p.mu.Lock()
	if p.conns[sc.host] == sc {
		delete(p.conns, sc.host)
	}
	p.mu.Unlock()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false
	}
	sc.dead, sc.err = true, cause
	for _, l := range sc.leases {
		l.closeOnce.Do(func() { close(l.done) })
	}
	return true
}

// connErr reports why the connection died (for leases woken by done).
func (sc *sharedConn) connErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return sc.err
	}
	return ucr.ErrClosed
}

// Frame implements ucr.Handler on the device's receive pump (D25): it
// splits the frame into its answers (D23), decodes each — a header by
// value, a manifest into a fresh one, so nothing routed aliases the
// receive buffer reposted after — and routes it to the lease its own
// tag's high 16 bits name, marking each answer that another of the same
// frame follows on its lease. An answer for a departed lease is a stray,
// counted and dropped: what a late responder write against a closed
// hostConn produces. A framing or decode error kills the connection before
// any answer of the frame is routed; every lease observes the cause once.
// Routing never waits: a lease's queue holds as many answers as it can
// have outstanding, so a full one was sent an answer it never asked for —
// a protocol violation that kills the connection — unless it is closing.
func (sc *sharedConn) Frame(frame []byte) {
	var err error
	if sc.split, err = wire.SplitBatch(frame, sc.split[:0]); err != nil {
		sc.fail(fmt.Errorf("%w: %v", errProtocol, err))
		return
	}
	lms := sc.answers[:0]
	for _, msg := range sc.split {
		var lm leaseMsg
		if len(msg) > 0 && msg[0] == wire.TypeReadManifest {
			if lm.man, err = wire.DecodeReadManifest(msg); err == nil {
				lm.tag = lm.man.Tag
			}
		} else if err = lm.resp.Decode(msg); err == nil {
			lm.tag = lm.resp.Tag
		}
		if err != nil {
			sc.fail(fmt.Errorf("%w: %v", errProtocol, err))
			return
		}
		lms = append(lms, lm)
	}
	now := sc.plane.now()
	for i := range lms {
		for _, later := range lms[i+1:] {
			if later.tag>>16 == lms[i].tag>>16 {
				lms[i].more = true
				break
			}
		}
		sc.mu.Lock()
		l := sc.leases[lms[i].tag>>16]
		sc.lastUse = now
		dead := sc.dead
		sc.mu.Unlock()
		if dead {
			break
		}
		if l == nil {
			sc.plane.count("shuffle.rdma.conn.strays", 1)
			continue
		}
		select {
		case l.msgs <- lms[i]:
		case <-l.done:
		default:
			sc.fail(fmt.Errorf("%w: answer tagged %#x overflows its lease's %d", errProtocol, lms[i].tag, cap(l.msgs)))
		}
	}
	clear(lms) // drop the manifests: their leases own them now
	sc.answers = lms
}

// Failed implements ucr.Handler: the endpoint's receive side died, and
// with it the connection.
func (sc *sharedConn) Failed(err error) { sc.fail(err) }

// leaseMsg is one routed answer, tagged tag: a manifest when man is
// non-nil, else the response header resp. more marks an answer that
// another answer of the same frame follows on the same lease.
type leaseMsg struct {
	resp wire.DataResponse
	man  *wire.ReadManifest
	tag  uint32
	more bool
}

// connLease is one fetcher's handle on a shared connection: a private
// 16-bit slot tag space and a private delivery queue. Sends go straight
// to the shared endpoint; receives are routed by Frame.
type connLease struct {
	sc        *sharedConn
	seq       uint32
	msgs      chan leaseMsg
	done      chan struct{}
	closeOnce sync.Once
}

// Tag maps a ring slot into this lease's slice of the connection's tag
// space. The responder echoes it verbatim; Frame routes on the high
// half, the hostConn books slots on the low half.
func (l *connLease) Tag(slot uint32) uint32 { return l.seq<<16 | slot&0xffff }

// Gen identifies the underlying connection incarnation (health dedupe).
func (l *connLease) Gen() uint64 { return l.sc.gen }

// Send delivers a message on the shared endpoint.
func (l *connLease) Send(ctx context.Context, b []byte) error { return l.sc.ep.Send(ctx, b) }

// ReadSG issues a one-sided RDMA READ on the shared endpoint.
func (l *connLease) ReadSG(ctx context.Context, sgl []verbs.SGE, raddr uint64, rkey uint32) error {
	return l.sc.ep.ReadSG(ctx, sgl, raddr, rkey)
}

// Recv returns the next frame routed to this lease. When the connection
// dies, buffered frames drain first, then the connection's cause
// surfaces (a transport-classified error, so the copier's retry
// machinery treats a shared-conn death exactly like a private one).
func (l *connLease) Recv(ctx context.Context) (leaseMsg, error) {
	select {
	case m := <-l.msgs:
		return m, nil
	case <-l.done:
		select {
		case m := <-l.msgs:
			return m, nil
		default:
		}
		return leaseMsg{}, l.sc.connErr()
	case <-ctx.Done():
		return leaseMsg{}, ctx.Err()
	}
}

// Close detaches the lease. killConn tears the whole shared connection
// down first (connection-level failure: protocol violation, request
// deadline, tracker death) — every sharer observes the cause and
// redials through its own retry budget. A clean close (shutdown, idle)
// leaves the connection cached for the next fetcher; the closing lease's
// unanswered responses become counted strays.
func (l *connLease) Close(killConn bool, cause error) {
	sc := l.sc
	if killConn {
		if cause == nil {
			cause = ucr.ErrClosed
		}
		sc.kill(cause)
	}
	l.closeOnce.Do(func() { close(l.done) })
	sc.mu.Lock()
	if _, ok := sc.leases[l.seq]; ok {
		delete(sc.leases, l.seq)
		sc.refs--
		sc.lastUse = sc.plane.now()
	}
	sc.mu.Unlock()
	sc.plane.sweepIdle()
}
