package verbs

import (
	"fmt"
	"sync"
)

// SRQ is an emulated shared receive queue: one pool of posted receive
// buffers consumed by every QP attached to it, instead of a private
// receive ring per connection. This is the verbs-level fix for the
// receive-memory half of the QP-explosion problem — N connections on a
// device share one buffer pool sized for the device's aggregate inflow,
// not N private rings each sized for a worst-case burst.
//
// Completions for SRQ-consumed receives are delivered to the consuming
// QP's receive CQ and carry that QP's number in WC.QPN, so a shared
// consumer can demultiplex which connection a buffer arrived on.
type SRQ struct {
	dev    *Device
	mu     sync.Mutex
	queue  recvRing
	closed bool
}

// recvRing is a FIFO of posted receives: a ring that grows only when every
// entry is posted, so the steady state of one pop per repost never
// allocates. (A slice popped by reslicing its head and refilled by append
// reallocates its backing array every few hundred reposts.)
type recvRing struct {
	buf        []RecvWR
	head, size int
}

func (r *recvRing) len() int { return r.size }

func (r *recvRing) push(wr RecvWR) {
	if r.size == len(r.buf) {
		grown := make([]RecvWR, max(16, 2*len(r.buf)))
		n := copy(grown, r.buf[r.head:])
		copy(grown[n:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)%len(r.buf)] = wr
	r.size++
}

func (r *recvRing) pop() (RecvWR, bool) {
	if r.size == 0 {
		return RecvWR{}, false
	}
	wr := r.buf[r.head]
	r.buf[r.head] = RecvWR{} // drop the region reference
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return wr, true
}

// drain empties the ring, returning its receives in post order.
func (r *recvRing) drain() []RecvWR {
	out := make([]RecvWR, 0, r.size)
	for wr, ok := r.pop(); ok; wr, ok = r.pop() {
		out = append(out, wr)
	}
	return out
}

// LastWQEWRID is the WRID of the synthetic completion a QP attached to
// an SRQ delivers when it enters the Error state — the emulator's
// stand-in for the IB "last WQE reached" async event. It consumes no
// SRQ buffer: consumers must not treat it as a posted receive.
const LastWQEWRID = ^uint64(0)

// CreateSRQ creates a shared receive queue on the device.
func (d *Device) CreateSRQ() (*SRQ, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	return &SRQ{dev: d}, nil
}

// PostRecv posts a receive buffer to the shared queue.
func (s *SRQ) PostRecv(wr RecvWR) error {
	if _, err := wr.SGE.slice(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.queue.push(wr)
	return nil
}

// Len reports the number of posted receives currently available.
func (s *SRQ) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.len()
}

// Close marks the SRQ closed; further posts fail. Buffers still queued
// are dropped (the owner retains the memory, as with real verbs).
func (s *SRQ) Close() {
	s.mu.Lock()
	s.closed = true
	s.queue = recvRing{}
	s.mu.Unlock()
}

// pop takes the head receive, as an incoming SEND targeting an attached
// QP does. ok=false means receiver-not-ready (RNR), exactly as for an
// empty per-QP receive queue.
func (s *SRQ) pop() (RecvWR, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RecvWR{}, false
	}
	return s.queue.pop()
}

// CreateQPWithSRQ creates a queue pair whose receive side draws buffers
// from the shared receive queue instead of a private receive queue.
// PostRecv on the QP itself is rejected; post to the SRQ instead.
func (d *Device) CreateQPWithSRQ(sendCQ, recvCQ *CQ, srq *SRQ) (*QueuePair, error) {
	if srq == nil {
		return nil, fmt.Errorf("verbs: CreateQPWithSRQ requires an SRQ")
	}
	if srq.dev != d {
		return nil, fmt.Errorf("verbs: SRQ belongs to device %q, not %q", srq.dev.name, d.name)
	}
	qp, err := d.CreateQP(sendCQ, recvCQ)
	if err != nil {
		return nil, err
	}
	qp.mu.Lock()
	qp.srq = srq
	qp.mu.Unlock()
	return qp, nil
}
