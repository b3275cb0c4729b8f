package verbs

import (
	"errors"
	"testing"
	"time"
)

// scriptedInjector returns a fixed verdict for every send and refuses
// dials on demand — the minimal FaultInjector for pinning emulator
// semantics (the seeded probabilistic injector lives in internal/chaos).
type scriptedInjector struct {
	verdict FaultVerdict
	refuse  bool
	only    Opcode // apply verdict only to this opcode when set (>= 0)
}

func (s *scriptedInjector) SendVerdict(_, _ string, op Opcode, _ int) FaultVerdict {
	if s.only >= 0 && op != s.only {
		return FaultVerdict{}
	}
	return s.verdict
}

func (s *scriptedInjector) DialRefused(_, _ string) bool { return s.refuse }

func TestFaultDialRefused(t *testing.T) {
	net := NewNetwork()
	a, _ := net.NewDevice("nodeA")
	b, _ := net.NewDevice("nodeB")
	cqA, cqB := a.CreateCQ(8), b.CreateCQ(8)
	qpA, _ := a.CreateQP(cqA, cqA)
	qpB, _ := b.CreateQP(cqB, cqB)

	net.SetFaultInjector(&scriptedInjector{refuse: true, only: -1})
	if !net.DialRefused("nodeA", "nodeB") {
		t.Fatal("Network.DialRefused did not surface the injector's refusal")
	}
	// Raw QP transitions are NOT the CM layer: both ends of one logical
	// dial perform a Connect, so the injector must not be consulted here
	// (the accept side's reverse Connect would invert the direction).
	if err := qpA.Connect("nodeB", qpB.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qpB.Connect("nodeA", qpA.QPN()); err != nil {
		t.Fatal(err)
	}
	// Clearing the injector clears the refusal (the retry path after a
	// transient CM rejection).
	net.SetFaultInjector(nil)
	if net.DialRefused("nodeA", "nodeB") {
		t.Fatal("refusal outlived the injector")
	}
}

func TestFaultDropSend(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	qpA.dev.net.SetFaultInjector(&scriptedInjector{
		verdict: FaultVerdict{Action: FaultDropSend}, only: -1,
	})
	dst := mustMR(t, qpB.dev, 64)
	if err := qpB.PostRecv(RecvWR{WRID: 7, SGE: SGE{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	src := mustMR(t, qpA.dev, 64)
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCRetryExceeded {
		t.Fatalf("dropped send completed %v, want WCRetryExceeded", wc.Status)
	}
	// Nothing was delivered: the posted receive is still pending.
	var got [1]WC
	if cqB.Poll(got[:]) != 0 {
		t.Fatalf("receiver got a completion for a dropped send: %+v", got[0])
	}
}

func TestFaultFailCompletionDeliversAnyway(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	qpA.dev.net.SetFaultInjector(&scriptedInjector{
		verdict: FaultVerdict{Action: FaultFailCompletion}, only: -1,
	})
	dst := mustMR(t, qpB.dev, 64)
	if err := qpB.PostRecv(RecvWR{WRID: 7, SGE: SGE{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	src := mustMR(t, qpA.dev, 64)
	copy(src.Bytes(), "dup-risk")
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	// The receiver sees a clean delivery...
	if wc := waitWC(t, cqB); wc.Status != WCSuccess || wc.ByteLen != 8 {
		t.Fatalf("recv completion: %+v", wc)
	}
	// ...while the sender is told the transfer failed. Re-issuing after
	// this completion is the duplicate-delivery case requesters must
	// tolerate.
	if wc := waitWC(t, cqA); wc.Status != WCRetryExceeded {
		t.Fatalf("send completion %v, want WCRetryExceeded", wc.Status)
	}
}

func TestFaultSeverQP(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	dst := mustMR(t, qpB.dev, 64)
	if err := qpB.PostRecv(RecvWR{WRID: 7, SGE: SGE{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	qpA.dev.net.SetFaultInjector(&scriptedInjector{
		verdict: FaultVerdict{Action: FaultSeverQP}, only: -1,
	})
	src := mustMR(t, qpA.dev, 64)
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	// The triggering WR flushes on the sender.
	if wc := waitWC(t, cqA); wc.Status != WCFlushErr {
		t.Fatalf("send completion %v, want WCFlushErr", wc.Status)
	}
	// The remote QP entered Error too: its posted receive flushed.
	if wc := waitWC(t, cqB); wc.Status != WCFlushErr || wc.WRID != 7 {
		t.Fatalf("recv completion: %+v", wc)
	}
	// Subsequent posts on either severed side fail immediately; the fault
	// stops firing once the connection is down but the QPs stay dead.
	qpA.dev.net.SetFaultInjector(nil)
	if err := qpA.PostSend(SendWR{WRID: 2, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); !errors.Is(err, ErrQPState) {
		t.Fatalf("post on severed QP = %v, want ErrQPState", err)
	}
	if err := qpB.PostRecv(RecvWR{WRID: 8, SGE: SGE{MR: dst, Length: 64}}); !errors.Is(err, ErrQPState) {
		t.Fatalf("recv post on severed QP = %v, want ErrQPState", err)
	}
}

func TestFaultDelayComposesWithSuccess(t *testing.T) {
	qpA, qpB, cqA, cqB := pair(t)
	const delay = 30 * time.Millisecond
	qpA.dev.net.SetFaultInjector(&scriptedInjector{
		verdict: FaultVerdict{Action: FaultDelay, Delay: delay}, only: -1,
	})
	dst := mustMR(t, qpB.dev, 64)
	if err := qpB.PostRecv(RecvWR{WRID: 7, SGE: SGE{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	src := mustMR(t, qpA.dev, 64)
	start := time.Now()
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	if wc := waitWC(t, cqA); wc.Status != WCSuccess {
		t.Fatalf("delayed send completed %v, want WCSuccess", wc.Status)
	}
	if wc := waitWC(t, cqB); wc.Status != WCSuccess {
		t.Fatalf("recv completion %v, want WCSuccess", wc.Status)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delayed op finished in %v, want >= %v", elapsed, delay)
	}
}

func TestSendToDestroyedRemoteRetryExceeded(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	qpB.Destroy()
	src := mustMR(t, qpA.dev, 64)
	if err := qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, SGE: SGE{MR: src, Length: 8}}); err != nil {
		t.Fatal(err)
	}
	// A dead remote is not RNR — the transport retry counter exhausts.
	if wc := waitWC(t, cqA); wc.Status != WCRetryExceeded {
		t.Fatalf("send to destroyed remote completed %v, want WCRetryExceeded", wc.Status)
	}
}
