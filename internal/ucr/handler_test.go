package ucr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recorder is a Handler that keeps a copy of every frame, the receive
// buffer each one was lent, and every failure it is told of.
type recorder struct {
	mu     sync.Mutex
	frames []string
	lent   [][]byte
	failed []error
}

func (r *recorder) Frame(msg []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, string(msg))
	r.lent = append(r.lent, msg)
}

func (r *recorder) Failed(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, err)
}

func (r *recorder) counts() (frames, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames), len(r.failed)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandlerTakesFramesFromTheReceiveBuffer: with a handler installed,
// every frame reaches it on the device pump, in order, and none reaches
// Recv. The frame is the SRQ buffer itself, lent for the call: once the
// device has taken SRQDepth more messages, the first frame's buffer holds
// a later message. A local Close tells the handler ErrClosed, once.
func TestHandlerTakesFramesFromTheReceiveBuffer(t *testing.T) {
	cep, sep := connected(t)
	h := &recorder{}
	cep.SetHandler(h)
	ctx := ctxT(t)
	const n = SRQDepth + 1
	for i := 0; i < n; i++ {
		if err := sep.Send(ctx, []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every frame at the handler", func() bool { f, _ := h.counts(); return f == n })
	for i, f := range h.frames {
		if want := fmt.Sprintf("frame-%04d", i); f != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
	if got, want := string(h.lent[0]), fmt.Sprintf("frame-%04d", SRQDepth); got != want {
		t.Fatalf("the first frame's receive buffer holds %q after %d more messages, want %q: the handler was not lent the buffer", got, SRQDepth, want)
	}
	rctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if msg, err := cep.Recv(rctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv with a handler installed = %q, %v; want nothing", msg, err)
	}
	cep.Close()
	cep.Close()
	if _, failed := h.counts(); failed != 1 || !errors.Is(h.failed[0], ErrClosed) {
		t.Fatalf("failures told to the handler after Close: %v, want one ErrClosed", h.failed)
	}
}

// TestFabricCloseStopsDevicePumps: Close stops every device's receive
// pump and fails the end-points still open on them — a handler learns of
// it through Failed, a Recv caller through its error — and the fabric
// refuses new end-points afterwards.
func TestFabricCloseStopsDevicePumps(t *testing.T) {
	f := NewFabric()
	sdev, err := f.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	cdev, err := f.NewDevice("client")
	if err != nil {
		t.Fatal(err)
	}
	l, err := f.Listen(sdev, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := ctxT(t)
	cep, err := f.Connect(ctx, cdev, "server", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	sep, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sep.Close()
	h := &recorder{}
	cep.SetHandler(h)

	f.Close()
	for _, dr := range []*devRecv{cep.dr, sep.dr} {
		select {
		case <-dr.done:
		default:
			t.Fatalf("a device pump is still running after Close")
		}
	}
	if _, failed := h.counts(); failed != 1 || !errors.Is(h.failed[0], ErrTransport) {
		t.Fatalf("failures told to the handler: %v, want one ErrTransport", h.failed)
	}
	if _, err := sep.Recv(ctx); !errors.Is(err, ErrTransport) {
		t.Fatalf("Recv after Close = %v, want ErrTransport", err)
	}
	if _, err := f.Connect(ctx, cdev, "server", "svc"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Connect after Close = %v, want ErrClosed", err)
	}
}

// TestSetHandlerAfterFailureReportsIt: a handler installed on an end-point
// whose receive side has already failed is told at once.
func TestSetHandlerAfterFailureReportsIt(t *testing.T) {
	cep, _ := connected(t)
	cep.Close()
	h := &recorder{}
	cep.SetHandler(h)
	if _, failed := h.counts(); failed != 1 || !errors.Is(h.failed[0], ErrClosed) {
		t.Fatalf("failures told to a late handler: %v, want one ErrClosed", h.failed)
	}
}
