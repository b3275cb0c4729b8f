package verbs

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPostSendCompletesBeforeReturn pins the posting contract: a work
// request executes inside PostSend, so the moment it returns a
// non-blocking Poll yields exactly that request's completion — on
// success and on every error a completion reports.
func TestPostSendCompletesBeforeReturn(t *testing.T) {
	for _, tc := range []struct {
		name   string
		op     Opcode
		recv   bool // post a receive on the peer first
		badKey bool
		want   WCStatus
		bytes  int
	}{
		{"send", OpSend, true, false, WCSuccess, 8},
		{"rdma-write", OpRDMAWrite, false, false, WCSuccess, 8},
		{"rdma-read", OpRDMARead, false, false, WCSuccess, 8},
		{"rnr", OpSend, false, false, WCRNRRetryExceeded, 0},
		{"remote-access-fault", OpRDMARead, false, true, WCRemoteAccessErr, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qpA, qpB, cqA, _ := pair(t)
			local, remote := mustMR(t, qpA.dev, 8), mustMR(t, qpB.dev, 8)
			if tc.recv {
				if err := qpB.PostRecv(RecvWR{SGE: SGE{MR: remote, Length: 8}}); err != nil {
					t.Fatal(err)
				}
			}
			rkey := remote.RKey()
			if tc.badKey {
				rkey++
			}
			const wrid = 77
			if err := qpA.PostSend(SendWR{WRID: wrid, Opcode: tc.op, SGE: SGE{MR: local, Length: 8},
				RemoteAddr: remote.Addr(), RKey: rkey}); err != nil {
				t.Fatal(err)
			}
			var wcs [2]WC
			if n := cqA.Poll(wcs[:]); n != 1 {
				t.Fatalf("Poll right after PostSend returned %d completions, want 1: %+v", n, wcs[:n])
			}
			if wc := wcs[0]; wc.WRID != wrid || wc.Opcode != tc.op || wc.Status != tc.want || wc.ByteLen != tc.bytes {
				t.Fatalf("completion %+v, want WRID %d %v %v with %d bytes", wc, wrid, tc.op, tc.want, tc.bytes)
			}
		})
	}
}

// TestCreateQPStartsNoGoroutine: a queue pair is state, not a thread —
// creating and destroying 64 of them leaves the goroutine count where it
// was.
func TestCreateQPStartsNoGoroutine(t *testing.T) {
	d, err := NewNetwork().NewDevice("x")
	if err != nil {
		t.Fatal(err)
	}
	cq := d.CreateCQ(4)
	before := runtime.NumGoroutine()
	qps := make([]*QueuePair, 64)
	for i := range qps {
		if qps[i], err = d.CreateQP(cq, cq); err != nil {
			t.Fatal(err)
		}
	}
	// A count that drops is an earlier test's goroutine finishing its exit.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with 64 QPs, %d before", n, before)
	}
	for _, qp := range qps {
		qp.Destroy()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after destroying 64 QPs, %d before", n, before)
	}
}

// parkAll holds every work request inside its verdict until release.
type parkAll struct {
	parked  chan struct{}
	release chan struct{}
}

func (p *parkAll) SendVerdict(_, _ string, _ Opcode, _ int) FaultVerdict {
	close(p.parked)
	<-p.release
	return FaultVerdict{}
}

func (p *parkAll) DialRefused(_, _ string) bool { return false }

// TestDestroyWaitsForInFlightPost: a post parked inside its fault verdict
// holds Destroy, called from another goroutine, until the verdict lets it
// go — after Destroy no work request references its buffers. The parked
// post still completes, and a post after Destroy fails with ErrQPState.
func TestDestroyWaitsForInFlightPost(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	local, remote := mustMR(t, qpA.dev, 8), mustMR(t, qpB.dev, 8)
	g := &parkAll{parked: make(chan struct{}), release: make(chan struct{})}
	qpA.dev.net.SetFaultInjector(g)
	read := SendWR{WRID: 1, Opcode: OpRDMARead, SGE: SGE{MR: local, Length: 8},
		RemoteAddr: remote.Addr(), RKey: remote.RKey()}
	posted := make(chan error, 1)
	go func() { posted <- qpA.PostSend(read) }()
	select {
	case <-g.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the READ never reached its verdict")
	}
	destroyed := make(chan struct{})
	go func() {
		qpA.Destroy()
		close(destroyed)
	}()
	select {
	case <-destroyed:
		t.Fatal("Destroy returned while a post was parked inside the QP")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-destroyed:
	case <-time.After(5 * time.Second):
		t.Fatal("Destroy did not return once the post was released")
	}
	if err := <-posted; err != nil {
		t.Fatalf("parked post: %v", err)
	}
	if wc := waitWC(t, cqA); wc.WRID != 1 || wc.Status != WCSuccess {
		t.Fatalf("parked post completed %+v, want WRID 1 success", wc)
	}
	qpA.dev.net.SetFaultInjector(nil)
	if err := qpA.PostSend(read); !errors.Is(err, ErrQPState) {
		t.Fatalf("post after Destroy = %v, want ErrQPState", err)
	}
}
