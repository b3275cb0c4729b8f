package verbs

import (
	"context"
	"testing"
	"time"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// srqPair wires two QPs on distinct devices, the receiver side attached
// to a fresh SRQ with nbufs posted MaxMessage-sized buffers.
func srqPair(t *testing.T, nbufs int) (send *QueuePair, recvCQ *CQ, srq *SRQ, bufMR *MemoryRegion) {
	t.Helper()
	net := NewNetwork()
	a, _ := net.NewDevice("a")
	b, _ := net.NewDevice("b")
	srq, err := b.CreateSRQ()
	if err != nil {
		t.Fatal(err)
	}
	recvCQ = b.CreateCQ(64)
	rqp, err := b.CreateQPWithSRQ(b.CreateCQ(16), recvCQ, srq)
	if err != nil {
		t.Fatal(err)
	}
	bufMR, _ = b.RegisterMemory(make([]byte, nbufs*1024))
	for i := 0; i < nbufs; i++ {
		wr := RecvWR{WRID: uint64(i), SGE: SGE{MR: bufMR, Offset: i * 1024, Length: 1024}}
		if err := srq.PostRecv(wr); err != nil {
			t.Fatal(err)
		}
	}
	send, _ = a.CreateQP(a.CreateCQ(16), a.CreateCQ(16))
	if err := send.Connect("b", rqp.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := rqp.Connect("a", send.QPN()); err != nil {
		t.Fatal(err)
	}
	return send, recvCQ, srq, bufMR
}

// TestSRQDeliversWithQPN: SENDs against an SRQ-attached QP consume
// shared buffers and complete on the QP's recv CQ carrying its QPN.
func TestSRQDeliversWithQPN(t *testing.T) {
	send, recvCQ, srq, bufMR := srqPair(t, 4)
	payload, _ := send.dev.RegisterMemory([]byte("hello srq"))
	if err := send.PostSend(SendWR{WRID: 7, Opcode: OpSend, SGE: SGE{MR: payload, Length: 9}}); err != nil {
		t.Fatal(err)
	}
	wc, err := recvCQ.Wait(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if wc.Status != WCSuccess || wc.ByteLen != 9 {
		t.Fatalf("wc = %+v", wc)
	}
	if wc.QPN == 0 {
		t.Fatal("receive completion lost its QPN — shared consumers cannot demux")
	}
	off := int(wc.WRID) * 1024
	if got := string(bufMR.Bytes()[off : off+9]); got != "hello srq" {
		t.Fatalf("payload = %q", got)
	}
	if srq.Len() != 3 {
		t.Fatalf("SRQ len = %d after one consume, want 3", srq.Len())
	}
}

// TestSRQEmptyMeansRNR: an exhausted SRQ behaves like an empty private
// receive queue — the sender completes with RNR-retry-exceeded.
func TestSRQEmptyMeansRNR(t *testing.T) {
	send, _, _, _ := srqPair(t, 0)
	payload, _ := send.dev.RegisterMemory([]byte("x"))
	sendCQ := send.sendCQ
	if err := send.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: payload, Length: 1}}); err != nil {
		t.Fatal(err)
	}
	wc, err := sendCQ.Wait(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if wc.Status != WCRNRRetryExceeded {
		t.Fatalf("send into empty SRQ = %v, want RNR_RETRY_EXCEEDED", wc.Status)
	}
}

// TestSRQLastWQEOnError: severing an SRQ-attached QP delivers exactly
// one synthetic flush completion (the last-WQE stand-in) carrying the
// dead QP's number, and leaves the shared buffers posted for other QPs.
func TestSRQLastWQEOnError(t *testing.T) {
	send, recvCQ, srq, _ := srqPair(t, 4)
	net := send.dev.net
	net.SetFaultInjector(severEverything{})
	defer net.SetFaultInjector(nil)
	payload, _ := send.dev.RegisterMemory([]byte("x"))
	if err := send.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: payload, Length: 1}}); err != nil {
		t.Fatal(err)
	}
	wc, err := recvCQ.Wait(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if wc.Status != WCFlushErr || wc.WRID != LastWQEWRID {
		t.Fatalf("wc = %+v, want last-WQE flush", wc)
	}
	if wc.QPN == 0 {
		t.Fatal("last-WQE completion lost its QPN")
	}
	if srq.Len() != 4 {
		t.Fatalf("SRQ len = %d after sever, want 4 (shared buffers must survive)", srq.Len())
	}
}

type severEverything struct{}

func (severEverything) SendVerdict(_, _ string, _ Opcode, _ int) FaultVerdict {
	return FaultVerdict{Action: FaultSeverQP}
}
func (severEverything) DialRefused(_, _ string) bool { return false }

// TestSRQPostRecvOnAttachedQPRejected: an SRQ-attached QP has no private
// receive queue.
func TestSRQPostRecvOnAttachedQPRejected(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("d")
	srq, _ := d.CreateSRQ()
	qp, _ := d.CreateQPWithSRQ(d.CreateCQ(4), d.CreateCQ(4), srq)
	mr, _ := d.RegisterMemory(make([]byte, 64))
	if err := qp.PostRecv(RecvWR{SGE: SGE{MR: mr, Length: 64}}); err == nil {
		t.Fatal("PostRecv on an SRQ-attached QP succeeded")
	}
}

// TestSRQDeviceMismatch: attaching a QP to another device's SRQ fails.
func TestSRQDeviceMismatch(t *testing.T) {
	net := NewNetwork()
	a, _ := net.NewDevice("a")
	b, _ := net.NewDevice("b")
	srq, _ := a.CreateSRQ()
	if _, err := b.CreateQPWithSRQ(b.CreateCQ(4), b.CreateCQ(4), srq); err == nil {
		t.Fatal("cross-device SRQ attach succeeded")
	}
}

// TestReceiveRepostZeroAllocs: the receive side's steady state — a SEND
// consumes the head receive and its consumer reposts the buffer — turns
// the shared queue (and a QP's private one) over several times without
// allocating. Popping by reslicing the head and reposting by append
// reallocated the backing array every few hundred reposts.
func TestReceiveRepostZeroAllocs(t *testing.T) {
	const posted = 512
	_, _, srq, mr := srqPair(t, posted)
	qp, err := mr.dev.CreateQP(mr.dev.CreateCQ(4), mr.dev.CreateCQ(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < posted; i++ {
		if err := qp.PostRecv(RecvWR{WRID: uint64(i), SGE: SGE{MR: mr, Offset: i * 1024, Length: 1024}}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 4*posted; i++ {
			wr, ok := srq.pop()
			if !ok {
				t.Fatal("shared queue ran dry")
			}
			if err := srq.PostRecv(wr); err != nil {
				t.Fatal(err)
			}
			qp.mu.Lock()
			wr, ok = qp.recvQueue.pop()
			qp.mu.Unlock()
			if !ok {
				t.Fatal("private queue ran dry")
			}
			if err := qp.PostRecv(wr); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d reposts, want 0", allocs, 4*posted)
	}
	if srq.Len() != posted {
		t.Fatalf("SRQ len = %d after the reposts, want %d", srq.Len(), posted)
	}
}
