package verbs

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/fabric"
)

// pair builds two connected devices with one QP each, a shared CQ per
// side, and returns (qpA, qpB, cqA, cqB).
func pair(t *testing.T) (*QueuePair, *QueuePair, *CQ, *CQ) {
	t.Helper()
	net := NewNetwork()
	a, err := net.NewDevice("nodeA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.NewDevice("nodeB")
	if err != nil {
		t.Fatal(err)
	}
	cqA, cqB := a.CreateCQ(64), b.CreateCQ(64)
	qpA, err := a.CreateQP(cqA, cqA)
	if err != nil {
		t.Fatal(err)
	}
	qpB, err := b.CreateQP(cqB, cqB)
	if err != nil {
		t.Fatal(err)
	}
	if err := qpA.Connect("nodeB", qpB.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qpB.Connect("nodeA", qpA.QPN()); err != nil {
		t.Fatal(err)
	}
	return qpA, qpB, cqA, cqB
}

func waitWC(t *testing.T, cq *CQ) WC {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	wc, err := cq.Wait(ctx)
	if err != nil {
		t.Fatalf("waiting for completion: %v", err)
	}
	return wc
}

func mustMR(t *testing.T, d *Device, n int) *MemoryRegion {
	t.Helper()
	mr, err := d.RegisterMemory(make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func TestSendRecv(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	src := mustMR(t, qpA.dev, 64)
	dst := mustMR(t, qpB.dev, 64)
	copy(src.Bytes(), "hello rdma")

	if err := qpB.PostRecv(RecvWR{WRID: 7, SGE: SGE{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 10}, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	send := waitWC(t, cqA)
	if send.Status != WCSuccess || send.WRID != 1 || send.ByteLen != 10 {
		t.Fatalf("send completion: %+v", send)
	}
	recv := waitWC(t, cqB)
	if recv.Status != WCSuccess || recv.WRID != 7 || recv.ByteLen != 10 || recv.Imm != 42 {
		t.Fatalf("recv completion: %+v", recv)
	}
	if string(dst.Bytes()[:10]) != "hello rdma" {
		t.Fatalf("payload: %q", dst.Bytes()[:10])
	}
}

func TestSendWithoutRecvIsRNR(t *testing.T) {
	qpA, _, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 8)
	if err := qpA.PostSend(SendWR{WRID: 2, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	wc := waitWC(t, cqA)
	if wc.Status != WCRNRRetryExceeded {
		t.Fatalf("status = %v, want RNR", wc.Status)
	}
}

func TestRDMAWrite(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 32)
	dst := mustMR(t, qpB.dev, 32)
	copy(src.Bytes(), "zero copy write!")

	err := qpA.PostSend(SendWR{
		WRID: 3, Opcode: OpRDMAWrite,
		SGE:        SGE{MR: src, Length: 16},
		RemoteAddr: dst.Addr(), RKey: dst.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := waitWC(t, cqA)
	if wc.Status != WCSuccess || wc.ByteLen != 16 {
		t.Fatalf("write completion: %+v", wc)
	}
	if string(dst.Bytes()[:16]) != "zero copy write!" {
		t.Fatalf("payload: %q", dst.Bytes()[:16])
	}
	// RDMA write must not consume a receive or notify the responder.
	var got [1]WC
	if qpB.recvCQ.Poll(got[:]) != 0 {
		t.Fatalf("responder notified of RDMA write: %+v", got[0])
	}
}

func TestRDMAWriteAtOffset(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 4)
	dst := mustMR(t, qpB.dev, 16)
	copy(src.Bytes(), "DATA")
	err := qpA.PostSend(SendWR{
		WRID: 9, Opcode: OpRDMAWrite,
		SGE:        SGE{MR: src, Length: 4},
		RemoteAddr: dst.Addr() + 8, RKey: dst.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCSuccess {
		t.Fatalf("completion: %+v", wc)
	}
	if string(dst.Bytes()[8:12]) != "DATA" {
		t.Fatalf("offset write landed wrong: %q", dst.Bytes())
	}
}

func TestRDMARead(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	local := mustMR(t, qpA.dev, 32)
	remote := mustMR(t, qpB.dev, 32)
	copy(remote.Bytes(), "remote contents")

	err := qpA.PostSend(SendWR{
		WRID: 4, Opcode: OpRDMARead,
		SGE:        SGE{MR: local, Length: 15},
		RemoteAddr: remote.Addr(), RKey: remote.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := waitWC(t, cqA)
	if wc.Status != WCSuccess || wc.ByteLen != 15 {
		t.Fatalf("read completion: %+v", wc)
	}
	if string(local.Bytes()[:15]) != "remote contents" {
		t.Fatalf("payload: %q", local.Bytes()[:15])
	}
	_ = qpB
}

func TestRDMABadRKey(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 8)
	dst := mustMR(t, qpB.dev, 8)
	err := qpA.PostSend(SendWR{
		WRID: 5, Opcode: OpRDMAWrite,
		SGE:        SGE{MR: src, Length: 8},
		RemoteAddr: dst.Addr(), RKey: dst.RKey() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCRemoteAccessErr {
		t.Fatalf("status = %v, want REMOTE_ACCESS_ERR", wc.Status)
	}
}

func TestRDMAOutOfBounds(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 64)
	dst := mustMR(t, qpB.dev, 16)
	err := qpA.PostSend(SendWR{
		WRID: 6, Opcode: OpRDMAWrite,
		SGE:        SGE{MR: src, Length: 64}, // larger than remote region
		RemoteAddr: dst.Addr(), RKey: dst.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCRemoteAccessErr {
		t.Fatalf("status = %v, want REMOTE_ACCESS_ERR", wc.Status)
	}
}

func TestRDMAAgainstDeregisteredRegion(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	src := mustMR(t, qpA.dev, 8)
	dst := mustMR(t, qpB.dev, 8)
	addr, rkey := dst.Addr(), dst.RKey()
	if err := dst.Deregister(); err != nil {
		t.Fatal(err)
	}
	err := qpA.PostSend(SendWR{
		WRID: 8, Opcode: OpRDMAWrite,
		SGE: SGE{MR: src, Length: 8}, RemoteAddr: addr, RKey: rkey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCRemoteAccessErr {
		t.Fatalf("status = %v, want REMOTE_ACCESS_ERR", wc.Status)
	}
	if err := dst.Deregister(); err == nil {
		t.Fatal("double deregister accepted")
	}
}

func TestPostSendRequiresRTS(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("solo")
	cq := d.CreateCQ(4)
	qp, _ := d.CreateQP(cq, cq)
	mr := mustMR(t, d, 8)
	if err := qp.PostSend(SendWR{Opcode: OpSend, SGE: SGE{MR: mr, Length: 8}}); err == nil {
		t.Fatal("send on RESET QP accepted")
	}
}

func TestPostRecvBeforeConnect(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("solo")
	cq := d.CreateCQ(4)
	qp, _ := d.CreateQP(cq, cq)
	mr := mustMR(t, d, 8)
	if err := qp.PostRecv(RecvWR{SGE: SGE{MR: mr, Length: 8}}); err != nil {
		t.Fatalf("pre-posting recv must be allowed: %v", err)
	}
}

func TestBadSGERejectedAtPost(t *testing.T) {
	qpA, _, _, _ := pair(t)
	mr := mustMR(t, qpA.dev, 8)
	if err := qpA.PostSend(SendWR{Opcode: OpSend, SGE: SGE{MR: mr, Offset: 4, Length: 8}}); err == nil {
		t.Fatal("out-of-bounds SGE accepted")
	}
	if err := qpA.PostRecv(RecvWR{SGE: SGE{MR: nil, Length: 8}}); err == nil {
		t.Fatal("nil MR accepted")
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	src := mustMR(t, qpA.dev, 64)
	dst := mustMR(t, qpB.dev, 4)
	_ = qpB.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: dst, Length: 4}})
	_ = qpA.PostSend(SendWR{WRID: 2, Opcode: OpSend, SGE: SGE{MR: src, Length: 64}})
	if wc := waitWC(t, cqA); wc.Status != WCRemoteAccessErr {
		t.Fatalf("sender status = %v", wc.Status)
	}
	if wc := waitWC(t, cqB); wc.Status != WCLocalProtErr {
		t.Fatalf("receiver status = %v", wc.Status)
	}
}

func TestSendOrderingPreserved(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	dst := mustMR(t, qpB.dev, 16)
	for i := 0; i < 16; i++ {
		_ = qpB.PostRecv(RecvWR{WRID: uint64(i), SGE: SGE{MR: dst, Offset: i, Length: 1}})
	}
	src := mustMR(t, qpA.dev, 16)
	for i := 0; i < 16; i++ {
		src.Bytes()[i] = byte('a' + i)
		if err := qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, SGE: SGE{MR: src, Offset: i, Length: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if wc := waitWC(t, cqA); wc.WRID != uint64(i) || wc.Status != WCSuccess {
			t.Fatalf("send %d completion: %+v", i, wc)
		}
		if wc := waitWC(t, cqB); wc.WRID != uint64(i) {
			t.Fatalf("recv %d completion: %+v", i, wc)
		}
	}
	if !bytes.Equal(dst.Bytes(), []byte("abcdefghijklmnop")) {
		t.Fatalf("payload order: %q", dst.Bytes())
	}
}

func TestDestroyFlushesQueuedSends(t *testing.T) {
	qpA, _, cqA, _ := pair(t)
	qpA.Destroy()
	if qpA.State() != QPDestroyed {
		t.Fatal("state after destroy")
	}
	mr := mustMR(t, qpA.dev, 8)
	if err := qpA.PostSend(SendWR{Opcode: OpSend, SGE: SGE{MR: mr, Length: 8}}); err == nil {
		t.Fatal("send after destroy accepted")
	}
	_ = cqA
}

func TestConnectUnknownDevice(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("x")
	cq := d.CreateCQ(4)
	qp, _ := d.CreateQP(cq, cq)
	if err := qp.Connect("ghost", 1); err == nil {
		t.Fatal("connect to unknown device accepted")
	}
}

func TestDuplicateDeviceName(t *testing.T) {
	net := NewNetwork()
	_, _ = net.NewDevice("dup")
	if _, err := net.NewDevice("dup"); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

func TestMemoryRegionGuardGap(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("x")
	a := mustMR(t, d, 16)
	b := mustMR(t, d, 16)
	if a.Addr()+uint64(a.Len()) >= b.Addr() {
		t.Fatal("regions adjacent; guard gap missing")
	}
	if a.RKey() == b.RKey() || a.LKey() == b.LKey() {
		t.Fatal("keys not unique")
	}
}

func TestDeviceClose(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("x")
	cq := d.CreateCQ(4)
	qp, _ := d.CreateQP(cq, cq)
	d.Close()
	if qp.State() != QPDestroyed {
		t.Fatal("device close must destroy QPs")
	}
	if _, err := d.RegisterMemory(make([]byte, 4)); err == nil {
		t.Fatal("register on closed device accepted")
	}
	// Name is now free for reuse.
	if _, err := net.NewDevice("x"); err != nil {
		t.Fatalf("name not released: %v", err)
	}
}

func TestCQPollNonBlocking(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("x")
	cq := d.CreateCQ(4)
	var got [10]WC
	if n := cq.Poll(got[:]); n != 0 {
		t.Fatalf("poll on empty CQ: %v", got[:n])
	}
}

func TestCQWaitCancellation(t *testing.T) {
	net := NewNetwork()
	d, _ := net.NewDevice("x")
	cq := d.CreateCQ(4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := cq.Wait(ctx); err == nil {
		t.Fatal("wait did not honor context")
	}
}

func TestLatencyInjection(t *testing.T) {
	net := NewNetwork()
	net.SetLatencyModel(fabric.Models(fabric.IBVerbs), 1) // no scaling: 2µs latency
	a, _ := net.NewDevice("a")
	b, _ := net.NewDevice("b")
	cqA, cqB := a.CreateCQ(4), b.CreateCQ(4)
	qpA, _ := a.CreateQP(cqA, cqA)
	qpB, _ := b.CreateQP(cqB, cqB)
	_ = qpA.Connect("b", qpB.QPN())
	_ = qpB.Connect("a", qpA.QPN())
	src, dst := mustMR(t, a, 8), mustMR(t, b, 8)
	_ = qpB.PostRecv(RecvWR{SGE: SGE{MR: dst, Length: 8}})
	start := time.Now()
	_ = qpA.PostSend(SendWR{Opcode: OpSend, SGE: SGE{MR: src, Length: 8}})
	waitWC(t, cqA)
	if elapsed := time.Since(start); elapsed < time.Microsecond {
		t.Logf("latency injection below timer resolution: %v", elapsed)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []fmt.Stringer{OpSend, OpRDMAWrite, OpRDMARead, WCSuccess, WCRNRRetryExceeded, QPReset, QPReadyToSend, QPDestroyed, Opcode(99), WCStatus(99), QPState(99)} {
		if s.String() == "" {
			t.Fatalf("empty String for %#v", s)
		}
	}
}
