// Package ucr is a Go rendition of the Unified Communication Runtime the
// paper builds on (§II-D): a light-weight, end-point based messaging
// library over InfiniBand verbs. The shuffle engines speak UCR end-points
// exclusively — RDMAListener owns a Listener, RDMACopier owns the
// connecting side — exactly as the paper's Figure 2 wires them through the
// "JNI Adaptive Interface" (unnecessary here: both sides are Go).
//
// An end-point provides:
//   - small-message Send/Recv (verbs SEND into a pre-posted receive ring),
//   - zero-copy bulk RDMA Write/Read against registered regions, used by
//     the shuffle data path (the responder RDMA-writes packets straight
//     into the copier's registered buffer).
package ucr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/mrpool"
	"rdmamr/internal/obs"
	"rdmamr/internal/verbs"
)

// Tunables for the message path.
const (
	// MaxMessage is the largest Send payload; control messages in the
	// shuffle protocol are far smaller.
	MaxMessage = 8 << 10
	// SRQDepth is the pre-posted receive count per DEVICE (DESIGN.md
	// D13): end-points share one verbs.SRQ and one slab-carved buffer
	// pool per device, so receive memory is sized for the device's
	// aggregate inflow instead of ringDepth buffers per connection —
	// the receive-side half of the QP-explosion fix.
	SRQDepth = 512
)

// Errors.
var (
	ErrMessageTooLarge = errors.New("ucr: message exceeds MaxMessage")
	// ErrClosed means this side closed the end-point: the failure is
	// local and deliberate, not a fabric fault.
	ErrClosed    = errors.New("ucr: endpoint closed")
	ErrNoService = errors.New("ucr: no such service")
	// ErrTransport wraps fabric-level failures (flushed/errored/lost
	// completions) on an end-point that was NOT locally closed — the
	// peer died, the QP severed, or packets were lost. Callers use
	// errors.Is(err, ErrTransport) to classify a failure as transient
	// and worth a reconnect, versus ErrClosed which is an ordinary
	// shutdown.
	ErrTransport = errors.New("ucr: transport failure")
	// ErrRemoteAccess qualifies an ErrTransport from an RDMA operation
	// whose completion reported a remote protection fault: the rkey was
	// wrong, the range fell outside the region, or the region was
	// deregistered (an expired descriptor lease, an evicted cache body).
	// The connection itself is still healthy — callers that advertise
	// remote ranges (the one-sided READ arm) key on it to fall back to a
	// responder-driven path instead of tearing the connection down.
	ErrRemoteAccess = errors.New("ucr: remote access fault")
)

// Fabric wraps a verbs.Network with the service registry that stands in
// for RDMA-CM connection management.
type Fabric struct {
	net *verbs.Network

	mu       sync.Mutex
	services map[string]*Listener

	// devRecvs holds the per-device shared receive plane (SRQ + buffer
	// pool + demux pump), created lazily at the first end-point on each
	// device. drMu serializes creation and Close; closed refuses planes
	// after Close.
	devRecvs sync.Map // *verbs.Device → *devRecv
	drMu     sync.Mutex
	closed   bool

	// metrics is the pre-resolved instrument set end-points inherit at
	// Connect; nil (the default) means the data path never reads the
	// clock. Atomic because SetRegistry may race concurrent dials.
	metrics atomic.Pointer[fabricObs]
}

// fabricObs is the set of instrument handles a Fabric shares with every
// end-point connected after SetRegistry. Handles resolve once, up
// front, so the per-operation cost is a nil check plus — only when
// attached — one clock read and an atomic histogram observation.
type fabricObs struct {
	hSend  *obs.Histogram // ucr.send: message post → send completion
	hWrite *obs.Histogram // ucr.rdma.write: bulk write post → completion
	hRead  *obs.Histogram // ucr.rdma.read: bulk read post → completion
	cDials *obs.Counter   // ucr.dials: successful Connects
	cMsgs  *obs.Counter   // ucr.recv.msgs: messages delivered by recvPump
	cBytes *obs.Counter   // ucr.recv.bytes: payload bytes delivered
}

// SetRegistry attaches an observability registry to the fabric: every
// end-point connected afterwards times its verbs operations into ucr.*
// histograms, and the underlying network counts every work completion
// under verbs.wc.*. A nil registry detaches both (end-points already
// connected keep the handles they were born with). Detached is the
// default, and its data-path cost is one nil check per operation.
func (f *Fabric) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		f.metrics.Store(nil)
		f.net.SetCompletionObserver(nil)
		return
	}
	f.metrics.Store(&fabricObs{
		hSend:  reg.Histogram("ucr.send"),
		hWrite: reg.Histogram("ucr.rdma.write"),
		hRead:  reg.Histogram("ucr.rdma.read"),
		cDials: reg.Counter("ucr.dials"),
		cMsgs:  reg.Counter("ucr.recv.msgs"),
		cBytes: reg.Counter("ucr.recv.bytes"),
	})
	// Completion-event accounting at the verbs layer: every WC any CQ
	// on the fabric delivers, send or receive side, success or not.
	wcTotal := reg.Counter("verbs.wc.total")
	wcErrs := reg.Counter("verbs.wc.errors")
	wcBytes := reg.Counter("verbs.wc.bytes")
	f.net.SetCompletionObserver(func(_ string, wc verbs.WC) {
		wcTotal.Add(1)
		wcBytes.Add(int64(wc.ByteLen))
		if wc.Status != verbs.WCSuccess {
			wcErrs.Add(1)
		}
	})
}

// NewFabric returns a Fabric over a fresh in-process verbs network.
func NewFabric() *Fabric {
	return &Fabric{net: verbs.NewNetwork(), services: make(map[string]*Listener)}
}

// Close stops every device's receive pump and fails the end-points still
// registered with them, as a dead receive plane does: a locally closed
// end-point reports ErrClosed, a live one ErrTransport. Afterwards no
// end-point can be created on the fabric. Close returns once every pump
// has exited.
func (f *Fabric) Close() {
	f.drMu.Lock()
	f.closed = true
	var drs []*devRecv
	f.devRecvs.Range(func(dev, v any) bool {
		drs = append(drs, v.(*devRecv))
		f.devRecvs.Delete(dev)
		return true
	})
	f.drMu.Unlock()
	for _, dr := range drs {
		dr.stop()
		<-dr.done
	}
}

// Network exposes the underlying verbs network (for latency injection).
func (f *Fabric) Network() *verbs.Network { return f.net }

// NewDevice attaches a named HCA to the fabric.
func (f *Fabric) NewDevice(name string) (*verbs.Device, error) { return f.net.NewDevice(name) }

// Listener accepts incoming end-point connections for a named service on
// one device, mirroring the paper's RDMAListener ("waits for incoming
// connection requests from the ReduceTask side, adds the connection to a
// pre-established queue").
type Listener struct {
	fabric  *Fabric
	dev     *verbs.Device
	service string
	backlog chan *EndPoint
	// closed signals shutdown instead of closing backlog: a dialer that
	// resolved this listener before Close may still be blocked on the
	// backlog send, and closing the channel under it would panic.
	closed chan struct{}
	once   sync.Once
}

// Listen registers a service on dev. The service name is scoped to the
// device, so every TaskTracker can expose "shuffle".
func (f *Fabric) Listen(dev *verbs.Device, service string) (*Listener, error) {
	key := dev.Name() + "/" + service
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.services[key]; ok {
		return nil, fmt.Errorf("ucr: service %s already listening", key)
	}
	l := &Listener{fabric: f, dev: dev, service: service,
		backlog: make(chan *EndPoint, 64), closed: make(chan struct{})}
	f.services[key] = l
	return l, nil
}

// Accept blocks until a peer connects, returning the server-side end-point.
// Connections already queued when the listener closes are still handed out.
func (l *Listener) Accept(ctx context.Context) (*EndPoint, error) {
	select {
	case ep := <-l.backlog:
		return ep, nil
	default:
	}
	select {
	case ep := <-l.backlog:
		return ep, nil
	case <-l.closed:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close unregisters the service; blocked Accepts return ErrClosed.
func (l *Listener) Close() {
	l.once.Do(func() {
		key := l.dev.Name() + "/" + l.service
		l.fabric.mu.Lock()
		delete(l.fabric.services, key)
		l.fabric.mu.Unlock()
		close(l.closed)
	})
}

// Connect establishes an end-point from dev to the named service on the
// remote device, performing the QP exchange both ways.
func (f *Fabric) Connect(ctx context.Context, dev *verbs.Device, remoteDev, service string) (*EndPoint, error) {
	// CM-level admission: a fault injector refusing this dial is the
	// emulated RDMA-CM REJECT. Checked once, from the dialing side — the
	// server's reverse QP transition below is part of the same dial.
	if f.net.DialRefused(dev.Name(), remoteDev) {
		return nil, fmt.Errorf("%w: %s -> %s/%s", verbs.ErrDialRefused, dev.Name(), remoteDev, service)
	}
	key := remoteDev + "/" + service
	f.mu.Lock()
	l, ok := f.services[key]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoService, key)
	}

	client, err := newEndPoint(f, dev)
	if err != nil {
		return nil, err
	}
	server, err := newEndPoint(f, l.dev)
	if err != nil {
		client.Close()
		return nil, err
	}
	if err := client.qp.Connect(l.dev.Name(), server.qp.QPN()); err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	if err := server.qp.Connect(dev.Name(), client.qp.QPN()); err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	client.peer, server.peer = l.dev.Name(), dev.Name()
	if m := f.metrics.Load(); m != nil {
		client.metrics, server.metrics = m, m
		m.cDials.Add(1)
	}
	select {
	case l.backlog <- server:
	case <-l.closed:
		// The service shut down between our lookup and the handoff —
		// same outcome as never having found it.
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %s", ErrNoService, key)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
	return client, nil
}

// EndPoint is a connected, bidirectional message + RDMA channel.
type EndPoint struct {
	dev    *verbs.Device
	qp     *verbs.QueuePair
	sendCQ *verbs.CQ
	peer   string

	// dr is the device's shared receive plane: the SRQ this end-point's
	// QP draws buffers from and the demux pump that routes completions
	// here by QPN.
	dr *devRecv

	// Send path: one slab-carved registered send buffer, serialized by
	// sendMu.
	sendBlk *mrpool.Block
	sendMu  sync.Mutex

	// Receive path: frames queue on msgs for Recv, unless a Handler is
	// installed (guarded by dr.mu), which takes them on the device pump.
	msgs     chan []byte
	handler  Handler
	notified atomic.Bool // the handler has been told of the failure

	// metrics is inherited from the fabric at Connect; nil means every
	// instrumentation site below is a dead branch (no clock reads).
	metrics *fabricObs

	closeOnce  sync.Once
	closed     chan struct{}
	recvFailed chan struct{}
	failOnce   sync.Once
	recvErr    error
	errMu      sync.Mutex
}

// devRecv is the per-device shared receive plane: one verbs.SRQ, one
// completion queue, and one slab-carved buffer pool serving every
// end-point on the device. A single pump goroutine demultiplexes
// completions to end-points by the QPN the WC carries — receive memory
// and receive-side goroutines now scale with devices, not connections.
// It runs until the fabric closes: stop ends it, done closes after.
type devRecv struct {
	dev    *verbs.Device
	srq    *verbs.SRQ
	recvCQ *verbs.CQ
	buf    *mrpool.Block // SRQDepth × MaxMessage
	stop   context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	eps map[uint32]*EndPoint // QPN → end-point
}

// Handler takes an end-point's frames on the device's receive pump instead
// of Recv (SetHandler). Frame runs once per message, before the receive
// buffer is reposted: msg is that buffer, the handler's to read until Frame
// returns and overwritten by a later SEND after, so whatever outlives the
// call is copied out. Frame runs on the goroutine that feeds every
// end-point on the device, and must not block: one handler that waits
// stalls all of them. Failed runs once, with the error Recv would report,
// when the end-point's receive side fails or closes — on the pump, or in
// whoever closed it.
type Handler interface {
	Frame(msg []byte)
	Failed(err error)
}

// devRecvFor returns the device's shared receive plane, creating it (and
// starting its pump) on first use.
func (f *Fabric) devRecvFor(dev *verbs.Device) (*devRecv, error) {
	if v, ok := f.devRecvs.Load(dev); ok {
		return v.(*devRecv), nil
	}
	f.drMu.Lock()
	defer f.drMu.Unlock()
	if v, ok := f.devRecvs.Load(dev); ok {
		return v.(*devRecv), nil
	}
	if f.closed {
		return nil, fmt.Errorf("%w: fabric closed", ErrClosed)
	}
	srq, err := dev.CreateSRQ()
	if err != nil {
		return nil, err
	}
	buf, err := mrpool.For(dev).Alloc(SRQDepth*MaxMessage, "ucr.recv")
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	dr := &devRecv{
		dev: dev, srq: srq,
		recvCQ: dev.CreateCQ(SRQDepth + 64),
		buf:    buf,
		stop:   stop,
		done:   make(chan struct{}),
		eps:    make(map[uint32]*EndPoint),
	}
	for i := 0; i < SRQDepth; i++ {
		if err := srq.PostRecv(dr.recvWR(uint64(i))); err != nil {
			stop()
			buf.Free()
			return nil, err
		}
	}
	go dr.pump(ctx)
	f.devRecvs.Store(dev, dr)
	return dr, nil
}

// recvWR builds the posted-receive work request for buffer slot i.
func (dr *devRecv) recvWR(i uint64) verbs.RecvWR {
	return verbs.RecvWR{WRID: i, SGE: verbs.SGE{
		MR: dr.buf.MR(), Offset: dr.buf.Offset() + int(i)*MaxMessage, Length: MaxMessage,
	}}
}

func (dr *devRecv) register(qpn uint32, ep *EndPoint) {
	dr.mu.Lock()
	dr.eps[qpn] = ep
	dr.mu.Unlock()
}

func (dr *devRecv) drop(qpn uint32) {
	dr.mu.Lock()
	delete(dr.eps, qpn)
	dr.mu.Unlock()
}

func (dr *devRecv) lookup(qpn uint32) (*EndPoint, Handler) {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	ep := dr.eps[qpn]
	if ep == nil {
		return nil, nil
	}
	return ep, ep.handler
}

// pump drains the shared receive CQ until the fabric closes, routing
// each message to the end-point whose QPN the completion carries: to its
// handler straight from the SRQ buffer, which is reposted once the handler
// returns, or else copied out — the buffer reposted at once so peers
// rarely see receiver-not-ready — and queued for Recv. Completions for QPs
// that already closed are dropped (their buffer is still recycled). Error
// completions carry the failing QP's number too — including the synthetic
// last-WQE flush a severed SRQ-attached QP delivers — and fail only that
// end-point. When the plane itself dies (fabric closed, SRQ refusing
// reposts) every registered end-point is failed so Recv callers unwind
// immediately instead of blocking until their contexts expire.
func (dr *devRecv) pump(ctx context.Context) {
	defer close(dr.done)
	for {
		wc, err := dr.recvCQ.Wait(ctx)
		if err != nil {
			dr.failAll(err)
			return
		}
		ep, h := dr.lookup(wc.QPN)
		if wc.Status != verbs.WCSuccess {
			// The last-WQE notification consumed no SRQ buffer; anything
			// else (flushed private recv, length error) did, so recycle it.
			if wc.WRID != verbs.LastWQEWRID {
				_ = dr.srq.PostRecv(dr.recvWR(wc.WRID))
			}
			if ep != nil {
				// A flushed/errored completion racing a local Close is the
				// close, not a fault. Only report ErrTransport when the
				// fabric failed an endpoint nobody closed.
				ep.failRecv(ep.classify(fmt.Errorf("receive failed: %v", wc.Status)))
				dr.drop(wc.QPN)
			}
			continue
		}
		off := dr.buf.Offset() + int(wc.WRID)*MaxMessage
		msg := dr.buf.MR().Bytes()[off : off+wc.ByteLen]
		if ep != nil {
			if m := ep.metrics; m != nil {
				m.cMsgs.Add(1)
				m.cBytes.Add(int64(wc.ByteLen))
			}
		}
		var payload []byte
		if h != nil {
			h.Frame(msg)
		} else if ep != nil {
			payload = make([]byte, len(msg))
			copy(payload, msg)
		}
		if err := dr.srq.PostRecv(dr.recvWR(wc.WRID)); err != nil {
			dr.failAll(err)
			return
		}
		if h != nil || ep == nil {
			continue // handled, or for a QP that closed mid-flight
		}
		select {
		case ep.msgs <- payload:
		case <-ep.closed:
		}
	}
}

// failAll fails every end-point registered on the device-wide receive
// plane: once the pump exits nothing will ever deliver to them again.
// Classification is per end-point, so a locally-closed one still reports
// ErrClosed while live ones report ErrTransport.
func (dr *devRecv) failAll(cause error) {
	dr.mu.Lock()
	eps := make([]*EndPoint, 0, len(dr.eps))
	for _, ep := range dr.eps {
		eps = append(eps, ep)
	}
	dr.eps = make(map[uint32]*EndPoint)
	dr.mu.Unlock()
	for _, ep := range eps {
		ep.failRecv(ep.classify(fmt.Errorf("device receive plane died: %v", cause)))
	}
}

func newEndPoint(f *Fabric, dev *verbs.Device) (*EndPoint, error) {
	dr, err := f.devRecvFor(dev)
	if err != nil {
		return nil, err
	}
	sendCQ := dev.CreateCQ(256)
	qp, err := dev.CreateQPWithSRQ(sendCQ, dr.recvCQ, dr.srq)
	if err != nil {
		return nil, err
	}
	sendBlk, err := mrpool.For(dev).Alloc(MaxMessage, "ucr.send")
	if err != nil {
		qp.Destroy()
		return nil, err
	}
	ep := &EndPoint{
		dev: dev, qp: qp, sendCQ: sendCQ, dr: dr,
		sendBlk:    sendBlk,
		msgs:       make(chan []byte, 1024),
		closed:     make(chan struct{}),
		recvFailed: make(chan struct{}),
	}
	dr.register(qp.QPN(), ep)
	return ep, nil
}

// failRecv records the end-point's receive error, wakes blocked Recv
// callers and tells the handler, if one is installed. It deliberately
// does NOT close msgs: the shared pump may be delivering concurrently,
// and only a single owner may close a channel — recvFailed carries the
// signal instead, and Recv drains buffered messages before surfacing the
// error.
func (ep *EndPoint) failRecv(err error) {
	ep.errMu.Lock()
	if ep.recvErr == nil {
		ep.recvErr = err
	}
	err = ep.recvErr
	ep.errMu.Unlock()
	ep.failOnce.Do(func() { close(ep.recvFailed) })
	ep.dr.mu.Lock()
	h := ep.handler
	ep.dr.mu.Unlock()
	ep.notify(h, err)
}

// notify tells h of the receive failure err, the first time only.
func (ep *EndPoint) notify(h Handler, err error) {
	if h != nil && err != nil && ep.notified.CompareAndSwap(false, true) {
		h.Failed(err)
	}
}

// SetHandler routes the end-point's incoming frames to h on the device's
// receive pump, in place of Recv. Install it before the peer can send: a
// frame that arrived earlier stays queued for Recv. An end-point whose
// receive side has already failed reports that to h at once.
func (ep *EndPoint) SetHandler(h Handler) {
	ep.dr.mu.Lock()
	ep.handler = h
	ep.dr.mu.Unlock()
	ep.errMu.Lock()
	err := ep.recvErr
	ep.errMu.Unlock()
	ep.notify(h, err)
}

// isClosed reports whether Close has begun on this end-point.
func (ep *EndPoint) isClosed() bool {
	select {
	case <-ep.closed:
		return true
	default:
		return false
	}
}

// classify wraps a data-path failure with the sentinel the copier's
// transient/fatal classifier keys on: ErrClosed when this side closed
// the end-point (the flush is self-inflicted), ErrTransport otherwise.
func (ep *EndPoint) classify(err error) error {
	if ep.isClosed() {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return fmt.Errorf("%w: %v", ErrTransport, err)
}

// Peer returns the remote device name.
func (ep *EndPoint) Peer() string { return ep.peer }

// Device returns the local device.
func (ep *EndPoint) Device() *verbs.Device { return ep.dev }

// Send transmits a small message (≤ MaxMessage) and waits for the send
// completion. Safe for concurrent use; sends are serialized. A
// receiver-not-ready completion is retried with backoff, mirroring the
// RNR NAK retry of a reliable-connected QP: the peer's receive pump
// re-posts ring buffers continuously, so brief exhaustion under bursts
// is transient.
//
// The payload is copied once into the end-point's registered send region
// — the bounce the gather path (SendSG) exists to avoid.
func (ep *EndPoint) Send(ctx context.Context, payload []byte) error {
	if len(payload) > MaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, len(payload))
	}
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	// Checked under sendMu: Close frees the send carve back to the device
	// pool under this same mutex, so past this point the block is ours
	// until we unlock — a late Send must not scribble on a recycled carve.
	if ep.isClosed() {
		return fmt.Errorf("%w: send on closed end-point", ErrClosed)
	}
	copy(ep.sendBlk.Bytes(), payload)
	return ep.sendLocked(ctx, verbs.SendWR{
		Opcode: verbs.OpSend,
		SGE:    verbs.SGE{MR: ep.sendBlk.MR(), Offset: ep.sendBlk.Offset(), Length: len(payload)},
	})
}

// SendSG transmits one message gathered from the caller's registered
// regions, without staging through the end-point's send buffer: the
// fabric gathers the scatter-gather list into a single wire message of
// the summed length (≤ MaxMessage). The SGL's regions must stay valid
// and unmodified until SendSG returns — RNR retries re-post the same
// list. Safe for concurrent use; sends are serialized.
func (ep *EndPoint) SendSG(ctx context.Context, sgl []verbs.SGE) error {
	total := 0
	for _, sge := range sgl {
		total += sge.Length
	}
	if total > MaxMessage {
		return fmt.Errorf("%w: %d bytes gathered", ErrMessageTooLarge, total)
	}
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	return ep.sendLocked(ctx, verbs.SendWR{Opcode: verbs.OpSend, SGL: sgl})
}

// post executes one work request and reaps its completion. The WR runs
// inside PostSend, which returns with the completion already on the send
// CQ, so the reap never blocks and a posted WR is never abandoned: when
// post returns, the fabric no longer references the WR's buffers. Caller
// holds sendMu, which makes it the send CQ's only consumer.
func (ep *EndPoint) post(wr verbs.SendWR) (verbs.WC, error) {
	if err := ep.qp.PostSend(wr); err != nil {
		// Posting fails only on a dead QP: ours after Close, or one the
		// fabric severed.
		return verbs.WC{}, ep.classify(err)
	}
	var wc [1]verbs.WC
	if ep.sendCQ.Poll(wc[:]) == 0 {
		return verbs.WC{}, ep.classify(fmt.Errorf("%v left no completion", wr.Opcode))
	}
	return wc[0], nil
}

// sendLocked runs the post→completion→RNR-retry loop for one SEND work
// request. Caller holds sendMu; the WR's buffers must remain stable
// across retries. ctx bounds only the RNR backoff.
func (ep *EndPoint) sendLocked(ctx context.Context, wr verbs.SendWR) error {
	m := ep.metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	const rnrRetries = 200
	for attempt := 0; ; attempt++ {
		select {
		case <-ep.closed:
			return ErrClosed
		default:
		}
		wc, err := ep.post(wr)
		if err != nil {
			return err
		}
		switch wc.Status {
		case verbs.WCSuccess:
			// RNR retries count toward the latency: the histogram answers
			// "how long did delivering this message take", not "how fast
			// was the happy path".
			if m != nil {
				m.hSend.Observe(time.Since(t0))
			}
			return nil
		case verbs.WCRNRRetryExceeded:
			if attempt >= rnrRetries {
				return ep.classify(fmt.Errorf("send failed after %d RNR retries", attempt))
			}
			backoff := time.Duration(attempt/10+1) * 50 * time.Microsecond
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return ep.classify(fmt.Errorf("send failed: %v", wc.Status))
		}
	}
}

// Recv returns the next incoming message (a fresh buffer owned by the
// caller), blocking until one arrives, the context cancels, or the
// end-point fails. Messages delivered before a failure are drained
// before the error surfaces.
func (ep *EndPoint) Recv(ctx context.Context) ([]byte, error) {
	select {
	case msg := <-ep.msgs:
		return msg, nil
	default:
	}
	select {
	case msg := <-ep.msgs:
		return msg, nil
	case <-ep.recvFailed:
		// One more drain: a message may have landed between the failure
		// signal and this wakeup.
		select {
		case msg := <-ep.msgs:
			return msg, nil
		default:
		}
		ep.errMu.Lock()
		defer ep.errMu.Unlock()
		return nil, ep.recvErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// RegisterMemory registers an application buffer for RDMA on this
// end-point's device.
func (ep *EndPoint) RegisterMemory(buf []byte) (*verbs.MemoryRegion, error) {
	return ep.dev.RegisterMemory(buf)
}

// RDMAWrite places the local SGE's bytes into the remote region addressed
// by (raddr, rkey), blocking until the completion. This is the shuffle
// bulk data path: no receive is consumed and no copy crosses a kernel.
// The RDMA calls do not consult ctx: the work request executes, whole,
// inside the call, and is never abandoned half-way.
func (ep *EndPoint) RDMAWrite(_ context.Context, sge verbs.SGE, raddr uint64, rkey uint32) error {
	return ep.rdma(verbs.SendWR{Opcode: verbs.OpRDMAWrite, SGE: sge, RemoteAddr: raddr, RKey: rkey})
}

// RDMARead fetches remote bytes into the local SGE, blocking until done.
func (ep *EndPoint) RDMARead(_ context.Context, sge verbs.SGE, raddr uint64, rkey uint32) error {
	return ep.rdma(verbs.SendWR{Opcode: verbs.OpRDMARead, SGE: sge, RemoteAddr: raddr, RKey: rkey})
}

// ReadSG fetches the remote bytes at (raddr, rkey) by one RDMA READ,
// scattering them across the local SGL in order — the one-sided fetch
// arm: the copier pulls a descriptor-advertised chunk straight into its
// ring region, split at the record-boundary ranges the manifest carried,
// with no responder involvement. A READ whose completion reports a
// remote protection fault (expired lease, evicted body, bad rkey)
// returns an error matching both ErrRemoteAccess and ErrTransport.
// ReadSG returns only after the READ has executed, whatever the outcome,
// so the local SGL is the caller's again from then on.
func (ep *EndPoint) ReadSG(_ context.Context, sgl []verbs.SGE, raddr uint64, rkey uint32) error {
	return ep.rdma(verbs.SendWR{Opcode: verbs.OpRDMARead, SGL: sgl, RemoteAddr: raddr, RKey: rkey})
}

func (ep *EndPoint) rdma(wr verbs.SendWR) error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	select {
	case <-ep.closed:
		return ErrClosed
	default:
	}
	m := ep.metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	wc, err := ep.post(wr)
	if err != nil {
		return err
	}
	if wc.Status != verbs.WCSuccess {
		if wc.Status == verbs.WCRemoteAccessErr && !ep.isClosed() {
			// A remote protection fault on a live connection: the peer's
			// region vanished or the address/rkey never matched. Still
			// ErrTransport for the generic transient classifier, but
			// additionally ErrRemoteAccess so READ-arm callers can fall
			// back without abandoning the connection.
			return fmt.Errorf("%w: %w: %v failed: %v", ErrTransport, ErrRemoteAccess, wr.Opcode, wc.Status)
		}
		return ep.classify(fmt.Errorf("%v failed: %v", wr.Opcode, wc.Status))
	}
	if m != nil {
		if wr.Opcode == verbs.OpRDMARead {
			m.hRead.Observe(time.Since(t0))
		} else {
			m.hWrite.Observe(time.Since(t0))
		}
	}
	return nil
}

// Close tears the end-point down. The peer's subsequent operations fail.
// In-flight Recv/Send on THIS side return errors wrapping ErrClosed (not
// ErrTransport), so callers can tell a deliberate local shutdown from a
// fabric fault. The end-point's slab carve is returned to the device's
// pool so reconnect churn does not leak registered memory; the shared
// SRQ buffers belong to the device and are untouched.
func (ep *EndPoint) Close() {
	ep.closeOnce.Do(func() {
		close(ep.closed)
		ep.qp.Destroy()
		// Unregister from the demux BEFORE failing the receive stream:
		// once dropped, the pump cannot deliver to (or block on) this
		// end-point again.
		ep.dr.drop(ep.qp.QPN())
		ep.failRecv(ErrClosed)
		// Destroy waited out any post in progress, so nothing references
		// the send carve through the fabric anymore. sendMu excludes a Send
		// that is still staging its payload into the carve: once the pool
		// hands this memory to a new owner, a straggling copy would be a
		// cross-owner data race. (That Send's post then fails on the
		// destroyed QP; new Sends see the closed flag under the mutex.)
		ep.sendMu.Lock()
		ep.sendBlk.Free()
		ep.sendMu.Unlock()
	})
}
