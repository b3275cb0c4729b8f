package verbs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// QPState is the queue pair state machine, following the IB spec's
// RESET→INIT→RTR→RTS progression (we collapse INIT/RTR into Connect).
type QPState int

// Queue pair states.
const (
	QPReset QPState = iota
	QPReadyToReceive
	QPReadyToSend
	QPError
	QPDestroyed
)

func (s QPState) String() string {
	switch s {
	case QPReset:
		return "RESET"
	case QPReadyToReceive:
		return "RTR"
	case QPReadyToSend:
		return "RTS"
	case QPError:
		return "ERROR"
	case QPDestroyed:
		return "DESTROYED"
	default:
		return fmt.Sprintf("QPState(%d)", int(s))
	}
}

// SGE is a scatter/gather entry addressing a slice of a registered region.
type SGE struct {
	MR     *MemoryRegion
	Offset int
	Length int
}

func (s SGE) slice() ([]byte, error) {
	if s.MR == nil {
		return nil, ErrBadSGE
	}
	if s.Offset < 0 || s.Length < 0 || s.Offset+s.Length > len(s.MR.buf) {
		return nil, fmt.Errorf("%w: off=%d len=%d region=%d", ErrBadSGE, s.Offset, s.Length, len(s.MR.buf))
	}
	return s.MR.buf[s.Offset : s.Offset+s.Length], nil
}

// MaxSGE is the largest scatter-gather list one work request may carry —
// the emulated HCA's max_send_sge capability (real adapters advertise a
// comparable, similarly small limit).
const MaxSGE = 16

// SendWR is a send-queue work request.
type SendWR struct {
	WRID   uint64
	Opcode Opcode
	SGE    SGE
	// SGL, when non-empty, is the scatter-gather list of the request and
	// takes precedence over SGE. The entries are gathered at the fabric
	// boundary into one wire message: the latency/fault models and the
	// receiver all see a single transfer of the summed length, exactly as
	// an HCA gathers a multi-SGE work request into one packet stream.
	SGL []SGE
	// RemoteAddr/RKey address the target region for RDMA READ/WRITE.
	RemoteAddr uint64
	RKey       uint32
	// Imm carries immediate data on SEND.
	Imm uint32
}

// sgl returns the effective scatter-gather list without copying: the
// explicit SGL when present, otherwise the single SGE viewed through the
// caller-provided one-element array (kept off the heap on the fast path).
func (wr *SendWR) sgl(one *[1]SGE) []SGE {
	if len(wr.SGL) > 0 {
		return wr.SGL
	}
	one[0] = wr.SGE
	return one[:]
}

// checkSGL validates every entry of the effective list against its
// region bounds and the MaxSGE capability, returning the total length.
func checkSGL(sgl []SGE) (int, error) {
	if len(sgl) > MaxSGE {
		return 0, fmt.Errorf("%w: %d entries exceed MaxSGE=%d", ErrBadSGE, len(sgl), MaxSGE)
	}
	total := 0
	for _, sge := range sgl {
		if _, err := sge.slice(); err != nil {
			return 0, err
		}
		total += sge.Length
	}
	return total, nil
}

// RecvWR is a receive-queue work request; incoming SENDs land in its SGE.
type RecvWR struct {
	WRID uint64
	SGE  SGE
}

// ReadWR is an RDMA READ work request: fetch the remote bytes at
// [RemoteAddr, RemoteAddr+n) from the region the peer advertised under
// RKey, scattering them across the local SGL in order (n is the summed
// SGL length). The requester's QP executes it one-sidedly — no remote
// receive is consumed and no remote software runs; protection (rkey
// match, bounds, region liveness) is enforced at the target HCA, so a
// READ against a deregistered or never-advertised range completes with
// WCRemoteAccessErr and moves no bytes.
type ReadWR struct {
	WRID       uint64
	SGL        []SGE
	RemoteAddr uint64
	RKey       uint32
}

// PostRead posts an RDMA READ work request. The QP must be RTS; the
// completion (status, total byte length) is on the send CQ when PostRead
// returns, like any other send-queue work request's.
func (qp *QueuePair) PostRead(wr ReadWR) error {
	return qp.PostSend(SendWR{WRID: wr.WRID, Opcode: OpRDMARead, SGL: wr.SGL, RemoteAddr: wr.RemoteAddr, RKey: wr.RKey})
}

// CQ is a completion queue. Completions are delivered in generation order
// and retrieved by Poll (non-blocking) or Wait (blocking).
type CQ struct {
	ch chan WC
	// net/dev route each completion through the network's observer (if
	// one is installed) before delivery.
	net *Network
	dev string
}

// CreateCQ returns a completion queue with the given depth. A full CQ
// blocks the goroutine generating the next completion — the poster of a
// send-queue work request, which executes it — until a consumer makes
// room. That is the emulator's equivalent of a CQ overrun (real HCAs
// would error the QP; blocking is kinder to tests and still surfaces
// stalls).
func (d *Device) CreateCQ(depth int) *CQ {
	if depth <= 0 {
		depth = 64
	}
	return &CQ{ch: make(chan WC, depth), net: d.net, dev: d.name}
}

// Poll moves up to len(wcs) completions into wcs without blocking and
// returns how many it moved, in the shape of ibv_poll_cq.
func (c *CQ) Poll(wcs []WC) int {
	for n := range wcs {
		select {
		case wcs[n] = <-c.ch:
		default:
			return n
		}
	}
	return len(wcs)
}

// Wait blocks for one completion or context cancellation.
func (c *CQ) Wait(ctx context.Context) (WC, error) {
	select {
	case wc := <-c.ch:
		return wc, nil
	case <-ctx.Done():
		return WC{}, ctx.Err()
	}
}

func (c *CQ) push(wc WC) {
	if c.net != nil {
		c.net.observeWC(c.dev, wc)
	}
	c.ch <- wc
}

// QueuePair is an emulated reliable-connected queue pair.
type QueuePair struct {
	dev    *Device
	qpn    uint32
	sendCQ *CQ
	recvCQ *CQ

	mu        sync.Mutex
	state     QPState
	recvQueue recvRing
	srq       *SRQ // non-nil: receive side draws from the shared queue
	peer      *Device
	peerQPN   uint32

	// postMu is held while a work request executes in the goroutine that
	// posted it, preserving the IB ordering guarantee: work requests on
	// one QP execute one at a time, in post order. Destroy takes it after
	// setting the state, so it returns only once no post is in progress.
	postMu sync.Mutex
}

// CreateQP creates a queue pair in the RESET state using the given
// completion queues (they may be the same CQ).
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) (*QueuePair, error) {
	if sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("verbs: CreateQP requires completion queues")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	d.nextQPN++
	qp := &QueuePair{
		dev:    d,
		qpn:    d.nextQPN,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		state:  QPReset,
	}
	d.qps[qp.qpn] = qp
	return qp, nil
}

// QPN returns the queue pair number, exchanged out-of-band to connect.
func (qp *QueuePair) QPN() uint32 { return qp.qpn }

// Connect transitions the QP to RTS targeting the remote (device, QPN).
// Both sides must Connect for bidirectional traffic, mirroring the
// INIT→RTR→RTS modify_qp sequence. The peer device is resolved here, once:
// every later post on the QP goes to that device, and fails once it is
// closed.
func (qp *QueuePair) Connect(remoteDev string, remoteQPN uint32) error {
	peer, err := qp.dev.net.lookup(remoteDev)
	if err != nil {
		return err
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.state != QPReset {
		return fmt.Errorf("%w: state %v, want RESET", ErrQPState, qp.state)
	}
	qp.peer = peer
	qp.peerQPN = remoteQPN
	qp.state = QPReadyToSend
	return nil
}

// PostRecv posts a receive work request. Allowed in RESET (pre-posting
// before connect is standard practice) and RTS. QPs attached to an SRQ
// have no private receive queue; post to the SRQ instead.
func (qp *QueuePair) PostRecv(wr RecvWR) error {
	if _, err := wr.SGE.slice(); err != nil {
		return err
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.srq != nil {
		return fmt.Errorf("%w: QP attached to SRQ", ErrQPState)
	}
	if qp.state == QPDestroyed || qp.state == QPError {
		return fmt.Errorf("%w: state %v", ErrQPState, qp.state)
	}
	qp.recvQueue.push(wr)
	return nil
}

// PostSend posts a send-queue work request and executes it in the calling
// goroutine, as a light-weight end-point library does: it returns with
// the request's completion already on the send CQ, so a non-blocking Poll
// reaps it. The QP must be RTS. Posts on one QP run one at a time, in
// post order, and the call lasts as long as its work request: a delayed
// or parked fault verdict or a full CQ stalls the poster. A post takes no
// network-wide lock: only the QP's own and its peer device's.
func (qp *QueuePair) PostSend(wr SendWR) error {
	var one [1]SGE
	sgl := wr.sgl(&one)
	total, err := checkSGL(sgl)
	if err != nil {
		return err
	}
	qp.postMu.Lock()
	defer qp.postMu.Unlock()
	qp.mu.Lock()
	state, peer, peerQPN := qp.state, qp.peer, qp.peerQPN
	qp.mu.Unlock()
	if state != QPReadyToSend {
		return fmt.Errorf("%w: state %v, want RTS", ErrQPState, state)
	}
	qp.execute(wr, sgl, total, peer, peerQPN)
	return nil
}

// enterError forces the QP into the Error state — the transition a real
// HCA performs after a fatal transport event (retry exhaustion, cable
// pull). Posted receives flush with WCFlushErr so blocked receivers wake;
// subsequent posts on the QP are rejected. Destroy still works afterwards.
func (qp *QueuePair) enterError() {
	qp.mu.Lock()
	if qp.state == QPDestroyed || qp.state == QPError {
		qp.mu.Unlock()
		return
	}
	qp.state = QPError
	flushed := qp.recvQueue.drain()
	srq := qp.srq
	qp.mu.Unlock()
	for _, wr := range flushed {
		qp.recvCQ.push(WC{WRID: wr.WRID, Status: WCFlushErr, QPN: qp.qpn})
	}
	if srq != nil {
		// An SRQ-attached QP has no private receives to flush (the shared
		// buffers survive for the other QPs), so deliver the "last WQE
		// reached" notification instead: one synthetic flush completion
		// that wakes the shared consumer and names the dead QP.
		qp.recvCQ.push(WC{WRID: LastWQEWRID, Status: WCFlushErr, QPN: qp.qpn})
	}
}

// Destroy tears down the QP: later posts fail with ErrQPState. It sets
// the state and then takes the post mutex, so it does not return while a
// post is executing — for EVERY caller, not just the one that wins the
// destroy race: callers rely on "after Destroy, no WR buffer is
// referenced", and a loser returning early while the winner still waits
// out a post mid-transfer would break that contract. A parked or delayed
// fault verdict therefore holds Destroy until it lets its post go, and a
// verdict or completion observer running for this QP's own post must not
// call Destroy: it would wait on itself.
func (qp *QueuePair) Destroy() {
	qp.mu.Lock()
	already := qp.state == QPDestroyed
	qp.state = QPDestroyed
	qp.mu.Unlock()
	qp.postMu.Lock()
	// Empty on purpose: any post that passed the state check has finished.
	qp.postMu.Unlock()
	if !already {
		qp.dev.mu.Lock()
		delete(qp.dev.qps, qp.qpn)
		qp.dev.mu.Unlock()
	}
}

// complete delivers wr's completion to the send CQ.
func (qp *QueuePair) complete(wr *SendWR, status WCStatus, n int) {
	qp.sendCQ.push(WC{WRID: wr.WRID, Status: status, Opcode: wr.Opcode, ByteLen: n, QPN: qp.qpn})
}

// execute runs one validated work request; the caller holds postMu.
// Gather list resolution: the fabric executes the work request as ONE
// wire message of the summed length — fault verdicts and the receiver's
// completion both see the total, never per-SGE fragments, mirroring how
// an HCA's DMA engine gathers before the wire. A closed peer device
// completes every opcode with WCRemoteAccessErr: the check sits inside
// the peer.mu sections the post takes anyway.
func (qp *QueuePair) execute(wr SendWR, sgl []SGE, total int, peer *Device, peerQPN uint32) {
	// okStatus is what a successfully executed operation completes with;
	// FaultFailCompletion delivers the data but reports failure.
	okStatus := WCSuccess
	if fi := qp.dev.net.faultInjector(); fi != nil {
		switch v := fi.SendVerdict(qp.dev.name, peer.name, wr.Opcode, total); v.Action {
		case FaultDelay:
			time.Sleep(v.Delay)
		case FaultDropSend:
			qp.complete(&wr, WCRetryExceeded, 0)
			return
		case FaultFailCompletion:
			okStatus = WCRetryExceeded
		case FaultSeverQP:
			qp.enterError()
			peer.mu.Lock()
			rqp := peer.qps[peerQPN]
			peer.mu.Unlock()
			if rqp != nil {
				rqp.enterError()
			}
			qp.complete(&wr, WCFlushErr, 0)
			return
		}
	}

	switch wr.Opcode {
	case OpSend:
		qp.executeSend(&wr, sgl, total, peer, peerQPN, okStatus)
	case OpRDMAWrite, OpRDMARead:
		peer.mu.Lock()
		remote, ok := peer.resolve(wr.RKey, wr.RemoteAddr, total)
		ok = ok && !peer.closed
		switch {
		case ok && wr.Opcode == OpRDMAWrite:
			gatherInto(remote, sgl)
		case ok:
			scatterFrom(remote, sgl)
		}
		peer.mu.Unlock()
		if !ok {
			qp.complete(&wr, WCRemoteAccessErr, 0)
			return
		}
		qp.complete(&wr, okStatus, total)
	default:
		qp.complete(&wr, WCLocalProtErr, 0)
	}
}

// gatherInto concatenates the SGL's segments into dst (already sized to
// the summed length by resolve).
func gatherInto(dst []byte, sgl []SGE) {
	for _, sge := range sgl {
		seg, _ := sge.slice() // validated by checkSGL
		copy(dst, seg)
		dst = dst[len(seg):]
	}
}

// scatterFrom splits src across the SGL's segments in order (RDMA READ
// with a scatter list).
func scatterFrom(src []byte, sgl []SGE) {
	for _, sge := range sgl {
		seg, _ := sge.slice()
		copy(seg, src)
		src = src[len(seg):]
	}
}

func (qp *QueuePair) executeSend(wr *SendWR, sgl []SGE, total int, peer *Device, peerQPN uint32, okStatus WCStatus) {
	peer.mu.Lock()
	rqp, ok := peer.qps[peerQPN]
	closed := peer.closed
	peer.mu.Unlock()
	if closed {
		qp.complete(wr, WCRemoteAccessErr, 0)
		return
	}
	if !ok {
		// The remote QP no longer exists (destroyed): no ACK ever comes
		// back, so the transport retry counter exhausts.
		qp.complete(wr, WCRetryExceeded, 0)
		return
	}
	rqp.mu.Lock()
	if rqp.state == QPDestroyed || rqp.state == QPError {
		rqp.mu.Unlock()
		// The remote QP is gone: the transport retry counter exhausts
		// without an ACK. Distinct from RNR (alive but no posted RECV),
		// which is worth retrying at the sender.
		qp.complete(wr, WCRetryExceeded, 0)
		return
	}
	var recv RecvWR
	if rqp.srq != nil {
		// SRQ-attached: the buffer comes from the shared pool; the
		// completion still lands on this QP's recv CQ with its QPN.
		srq := rqp.srq
		rqp.mu.Unlock()
		var ok bool
		if recv, ok = srq.pop(); !ok {
			qp.complete(wr, WCRNRRetryExceeded, 0)
			return
		}
	} else {
		var ok bool
		recv, ok = rqp.recvQueue.pop()
		rqp.mu.Unlock()
		if !ok {
			// Receiver not ready: on real RC QPs, RNR NAK then retry; with
			// retries exceeded the sender completes in error.
			qp.complete(wr, WCRNRRetryExceeded, 0)
			return
		}
	}

	dst, err := recv.SGE.slice()
	if err != nil || len(dst) < total {
		// Receive buffer too small: local length error on the responder,
		// remote op error on the requester.
		rqp.recvCQ.push(WC{WRID: recv.WRID, Status: WCLocalProtErr, QPN: rqp.qpn})
		qp.complete(wr, WCRemoteAccessErr, 0)
		return
	}
	gatherInto(dst, sgl)
	rqp.recvCQ.push(WC{WRID: recv.WRID, Status: WCSuccess, ByteLen: total, QPN: rqp.qpn, Imm: wr.Imm})
	qp.complete(wr, okStatus, total)
}

// Close shuts the device down: it closes the values kept on it (Value),
// the latest first, then destroys its QPs.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	vals := d.vals
	d.mu.Unlock()
	for i := len(vals) - 1; i >= 0; i-- {
		if c, ok := vals[i].v.(interface{ Close() }); ok {
			c.Close()
		}
	}
	d.mu.Lock()
	qps := make([]*QueuePair, 0, len(d.qps))
	for _, qp := range d.qps {
		qps = append(qps, qp)
	}
	d.mu.Unlock()
	for _, qp := range qps {
		qp.Destroy()
	}
	d.net.mu.Lock()
	delete(d.net.devices, d.name)
	d.net.mu.Unlock()
}
