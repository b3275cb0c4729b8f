package ucr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/mrpool"
	"rdmamr/internal/verbs"
)

// severInjector severs the first send toward a target device, then goes
// quiet — one clean mid-flight QP failure.
type severInjector struct {
	mu     sync.Mutex
	target string
	fired  bool
}

func (s *severInjector) SendVerdict(_, remote string, _ verbs.Opcode, _ int) verbs.FaultVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fired && remote == s.target {
		s.fired = true
		return verbs.FaultVerdict{Action: verbs.FaultSeverQP}
	}
	return verbs.FaultVerdict{}
}

func (s *severInjector) DialRefused(_, _ string) bool { return false }

// TestCloseDuringRecvReturnsErrClosed pins the satellite contract: a
// local Close racing an in-flight Recv surfaces ErrClosed (errors.Is),
// never a transport error — the flush was self-inflicted.
func TestCloseDuringRecvReturnsErrClosed(t *testing.T) {
	cep, sep := connected(t)
	_ = cep

	recvErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for {
			if _, err := sep.Recv(ctx); err != nil {
				recvErr <- err
				return
			}
		}
	}()
	// Give the receiver a moment to block in Recv, then close under it.
	time.Sleep(10 * time.Millisecond)
	sep.Close()
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv during local Close = %v, want ErrClosed", err)
		}
		if errors.Is(err, ErrTransport) {
			t.Fatalf("local close classified as transport fault: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
}

// TestSeveredQPClassifiedAsTransport: when the fabric severs the QP (no
// local Close), Send fails with an error wrapping ErrTransport — the
// signal the copier's classifier treats as reconnect-worthy.
func TestSeveredQPClassifiedAsTransport(t *testing.T) {
	f := NewFabric()
	cep, _ := connectedOn(t, f) // cep dials from "client" to "server"
	f.Network().SetFaultInjector(&severInjector{target: "server"})

	err := cep.Send(ctxT(t), []byte("doomed"))
	if err == nil {
		t.Fatal("send over severed QP succeeded")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("severed-QP send = %v, want ErrTransport", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("fabric fault classified as local close: %v", err)
	}
}

// TestPeerDeathClassifiedAsTransport: the REMOTE side closing mid-stream
// is a fabric event from our perspective, not our close.
func TestPeerDeathClassifiedAsTransport(t *testing.T) {
	cep, sep := connected(t)
	sep.Close()
	err := cep.Send(ctxT(t), []byte("x"))
	if err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("send to dead peer = %v, want ErrTransport", err)
	}
}

// TestCloseReleasesRegions: endpoint churn (connect/close in a loop, as
// the self-healing copier does on reconnect) must not leak registered
// memory — every end-point's send carve goes back to the device's slab
// pool at Close, and only the SRQ buffer stays, until the fabric's Close
// gives that back too.
func TestCloseReleasesRegions(t *testing.T) {
	f := NewFabric()
	cep, sep := connectedOn(t, f)
	pool := mrpool.For(cep.dev)
	baseline := pool.InUseBytes()
	cep.Close()
	sep.Close()
	if !cep.sendBlk.Freed() {
		t.Fatal("send carve still allocated after Close")
	}
	if got := pool.InUseBytes(); got >= baseline {
		t.Fatalf("pool in-use bytes %d did not drop from %d after Close", got, baseline)
	}
	if attr := pool.Attribution()["ucr.send"]; attr != 0 {
		t.Fatalf("ucr.send attribution = %d bytes after Close, want 0", attr)
	}
	f.Close()
	for _, dev := range []*verbs.Device{cep.dev, sep.dev} {
		p := mrpool.For(dev)
		if attr := p.Attribution(); len(attr) != 0 || p.OutstandingBlocks() != 0 {
			t.Fatalf("%s: %d blocks (%v) still out after Fabric.Close, want none", dev.Name(), p.OutstandingBlocks(), attr)
		}
	}
}

// TestDialRefusedSurfacesSentinel: a refused dial comes back as
// verbs.ErrDialRefused through Fabric.Connect, with both endpoints torn
// down.
func TestDialRefusedSurfacesSentinel(t *testing.T) {
	f := NewFabric()
	sdev, _ := f.NewDevice("server")
	cdev, _ := f.NewDevice("client")
	if _, err := f.Listen(sdev, "svc"); err != nil {
		t.Fatal(err)
	}
	f.Network().SetFaultInjector(&refuseAll{})
	_, err := f.Connect(ctxT(t), cdev, "server", "svc")
	if !errors.Is(err, verbs.ErrDialRefused) {
		t.Fatalf("Connect = %v, want verbs.ErrDialRefused", err)
	}
	// Clearing the injector lets a retry succeed: nothing was leaked or
	// left half-connected by the refused attempt.
	f.Network().SetFaultInjector(nil)
	if _, err := f.Connect(ctxT(t), cdev, "server", "svc"); err != nil {
		t.Fatal(err)
	}
}

type refuseAll struct{}

func (refuseAll) SendVerdict(_, _ string, _ verbs.Opcode, _ int) verbs.FaultVerdict {
	return verbs.FaultVerdict{}
}
func (refuseAll) DialRefused(_, _ string) bool { return true }
