package verbs

import (
	"errors"
	"fmt"
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

// postEach posts a SEND, a WRITE and a READ of 8 bytes from qpA to qpB
// (after a receive for the SEND, if qpB still takes one) and returns
// their completions in that order. It calls no t method, so it may run on
// its own goroutine.
func postEach(qpA, qpB *QueuePair, cqA *CQ, local, remote *MemoryRegion) ([]WC, error) {
	_ = qpB.PostRecv(RecvWR{SGE: SGE{MR: remote, Length: 8}})
	wcs := make([]WC, 3)
	for i, op := range []Opcode{OpSend, OpRDMAWrite, OpRDMARead} {
		if err := qpA.PostSend(SendWR{Opcode: op, SGE: SGE{MR: local, Length: 8},
			RemoteAddr: remote.Addr(), RKey: remote.RKey()}); err != nil {
			return nil, err
		}
		if cqA.Poll(wcs[i:i+1]) != 1 {
			return nil, fmt.Errorf("%v returned without its completion", op)
		}
	}
	return wcs, nil
}

// TestPostTakesNoNetworkLock: a connected QP posts on the peer it resolved
// at Connect, so SEND, WRITE and READ all complete while another goroutine
// holds the network's device map for writing.
func TestPostTakesNoNetworkLock(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	local, remote := mustMR(t, qpA.dev, 8), mustMR(t, qpB.dev, 8)
	done := make(chan error, 1)
	var wcs []WC
	qpA.dev.net.mu.Lock()
	go func() {
		var err error
		wcs, err = postEach(qpA, qpB, cqA, local, remote)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Second):
		qpA.dev.net.mu.Unlock()
		<-done // the posts finish once the lock is let go
		t.Fatal("posts did not complete within 1 s while the network lock was held")
	}
	qpA.dev.net.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range wcs {
		if wc.Status != WCSuccess {
			t.Fatalf("%v completed %v", wc.Opcode, wc.Status)
		}
	}
}

// TestPostToClosedPeer: once the peer device is closed, SEND, WRITE and
// READ all complete with WCRemoteAccessErr and move nothing.
func TestPostToClosedPeer(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	local, remote := mustMR(t, qpA.dev, 8), mustMR(t, qpB.dev, 8)
	qpB.dev.Close()
	wcs, err := postEach(qpA, qpB, cqA, local, remote)
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range wcs {
		if wc.Status != WCRemoteAccessErr || wc.ByteLen != 0 {
			t.Fatalf("%v to a closed peer completed %+v, want REMOTE_ACCESS_ERR", wc.Opcode, wc)
		}
	}
}

// TestFaultInjectorSwapDuringPosts (meant for -race): installing,
// replacing and removing the injector while a QP posts leaves every post
// completing before PostSend returns.
func TestFaultInjectorSwapDuringPosts(t *testing.T) {
	qpA, qpB, cqA, _ := pair(t)
	local, remote := mustMR(t, qpA.dev, 8), mustMR(t, qpB.dev, 8)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			err := qpA.PostSend(SendWR{Opcode: []Opcode{OpRDMAWrite, OpRDMARead}[i%2],
				SGE: SGE{MR: local, Length: 8}, RemoteAddr: remote.Addr(), RKey: remote.RKey()})
			var wc [1]WC
			if err == nil && cqA.Poll(wc[:]) != 1 {
				err = fmt.Errorf("post %d returned without its completion", i)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	injs := []FaultInjector{&scriptedInjector{only: -1}, nil,
		&scriptedInjector{verdict: FaultVerdict{Action: FaultFailCompletion}, only: OpRDMARead}}
	for i := 0; ; i++ {
		select {
		case err := <-done:
			qpA.dev.net.SetFaultInjector(nil)
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			qpA.dev.net.SetFaultInjector(injs[i%len(injs)])
		}
	}
}
