package ucr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/obs"
	"rdmamr/internal/verbs"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// connected returns a client endpoint on "client" connected to service
// "svc" on "server", plus the accepted server endpoint.
func connected(t *testing.T) (*EndPoint, *EndPoint) {
	t.Helper()
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
	ctx := ctxT(t)
	cep, err := f.Connect(ctx, cdev, "server", "svc")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cep.Close(); sep.Close() })
	return cep, sep
}

func TestSendRecvRoundTrip(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	if err := cep.Send(ctx, []byte("request")); err != nil {
		t.Fatal(err)
	}
	msg, err := sep.Recv(ctx)
	if err != nil || string(msg) != "request" {
		t.Fatalf("recv: %q %v", msg, err)
	}
	if err := sep.Send(ctx, []byte("response")); err != nil {
		t.Fatal(err)
	}
	msg, err = cep.Recv(ctx)
	if err != nil || string(msg) != "response" {
		t.Fatalf("recv: %q %v", msg, err)
	}
}

func TestEmptyMessage(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	if err := cep.Send(ctx, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := sep.Recv(ctx)
	if err != nil || len(msg) != 0 {
		t.Fatalf("recv: %v %v", msg, err)
	}
}

func TestMessageTooLarge(t *testing.T) {
	cep, _ := connected(t)
	err := cep.Send(ctxT(t), make([]byte, MaxMessage+1))
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestManyMessagesExceedRing(t *testing.T) {
	// More messages than the device's SRQ depth must flow, proving the
	// pump re-posts shared buffers.
	cep, sep := connected(t)
	ctx := ctxT(t)
	const n = SRQDepth * 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := cep.Send(ctx, []byte(fmt.Sprintf("m%04d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := sep.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%04d", i); string(msg) != want {
			t.Fatalf("recv %d = %q, want %q (ordering violated)", i, msg, want)
		}
	}
	wg.Wait()
}

func TestConcurrentSenders(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	const per, workers = 50, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := cep.Send(ctx, []byte{byte(w)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	counts := make(map[byte]int)
	for i := 0; i < per*workers; i++ {
		msg, err := sep.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts[msg[0]]++
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if counts[byte(w)] != per {
			t.Fatalf("worker %d: %d messages, want %d", w, counts[byte(w)], per)
		}
	}
}

func TestRDMAWriteIntoCopierBuffer(t *testing.T) {
	// The shuffle data path: copier registers a buffer, sends (addr, rkey)
	// in a request; responder RDMA-writes the payload and sends a header.
	cep, sep := connected(t)
	ctx := ctxT(t)

	buf := make([]byte, 1<<16)
	mr, err := cep.RegisterMemory(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Responder-side source region.
	data := []byte("shuffled map output partition bytes")
	src, err := sep.RegisterMemory(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sep.RDMAWrite(ctx, verbs.SGE{MR: src, Length: len(data)}, mr.Addr(), mr.RKey()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(data)], data) {
		t.Fatalf("buffer = %q", buf[:len(data)])
	}
}

func TestRDMARead(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	remote := []byte("remote map output")
	rmr, err := sep.RegisterMemory(remote)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]byte, len(remote))
	lmr, err := cep.RegisterMemory(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := cep.RDMARead(ctx, verbs.SGE{MR: lmr, Length: len(local)}, rmr.Addr(), rmr.RKey()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, remote) {
		t.Fatalf("read = %q", local)
	}
}

func TestRDMAWriteBadKeyFails(t *testing.T) {
	cep, sep := connected(t)
	buf := make([]byte, 16)
	mr, _ := cep.RegisterMemory(buf)
	src, _ := sep.RegisterMemory(make([]byte, 16))
	err := sep.RDMAWrite(ctxT(t), verbs.SGE{MR: src, Length: 16}, mr.Addr(), mr.RKey()+7)
	if err == nil {
		t.Fatal("bad rkey write succeeded")
	}
}

func TestConnectNoService(t *testing.T) {
	f := NewFabric()
	cdev, _ := f.NewDevice("c")
	_, err := f.Connect(ctxT(t), cdev, "nowhere", "svc")
	if !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
}

func TestListenerDuplicate(t *testing.T) {
	f := NewFabric()
	d, _ := f.NewDevice("s")
	_, err := f.Listen(d, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen(d, "svc"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	f := NewFabric()
	d, _ := f.NewDevice("s")
	l, _ := f.Listen(d, "svc")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("accept err = %v", err)
	}
	// Close is idempotent and the service name is reusable.
	l.Close()
	if _, err := f.Listen(d, "svc"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestAcceptContextCancel(t *testing.T) {
	f := NewFabric()
	d, _ := f.NewDevice("s")
	l, _ := f.Listen(d, "svc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := l.Accept(ctx); err == nil {
		t.Fatal("accept ignored context")
	}
}

func TestSendAfterClose(t *testing.T) {
	cep, _ := connected(t)
	cep.Close()
	if err := cep.Send(ctxT(t), []byte("x")); !errors.Is(err, ErrClosed) && err == nil {
		t.Fatalf("send after close: %v", err)
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	cep, sep := connected(t)
	sep.Close()
	// Client may or may not observe an error depending on whether anything
	// was in flight; a Send to the closed peer must fail.
	err := cep.Send(ctxT(t), []byte("x"))
	if err == nil {
		t.Fatal("send to closed peer succeeded")
	}
}

func TestMultipleEndpointsPerListener(t *testing.T) {
	f := NewFabric()
	sdev, _ := f.NewDevice("server")
	l, _ := f.Listen(sdev, "shuffle")
	ctx := ctxT(t)
	const n = 4
	clients := make([]*EndPoint, n)
	servers := make([]*EndPoint, n)
	for i := 0; i < n; i++ {
		cdev, err := f.NewDevice(fmt.Sprintf("reducer%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients[i], err = f.Connect(ctx, cdev, "server", "shuffle")
		if err != nil {
			t.Fatal(err)
		}
		servers[i], err = l.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := clients[i].Send(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		msg, err := servers[i].Recv(ctx)
		if err != nil || msg[0] != byte(i) {
			t.Fatalf("endpoint %d crosstalk: %v %v", i, msg, err)
		}
	}
	if got := servers[0].Peer(); got != "reducer0" {
		t.Fatalf("peer = %q", got)
	}
}

// TestFabricRegistryInstrumentation attaches an obs registry and checks
// that dials, messages, RDMA operations, and verbs completions all land
// in it — and that endpoints born before attach stay uninstrumented.
func TestFabricRegistryInstrumentation(t *testing.T) {
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
	ctx := ctxT(t)

	// Connect once with the fabric detached: the endpoint must carry no
	// handles and the registry (attached later) must see none of it.
	cold, err := f.Connect(ctx, cdev, "server", "svc")
	if err != nil {
		t.Fatal(err)
	}
	coldSrv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.metrics != nil || coldSrv.metrics != nil {
		t.Fatal("endpoints connected before SetRegistry must stay uninstrumented")
	}
	cold.Close()
	coldSrv.Close()

	reg := obs.NewRegistry()
	f.SetRegistry(reg)
	cep, err := f.Connect(ctx, cdev, "server", "svc")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	defer sep.Close()

	if err := cep.Send(ctx, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if msg, err := sep.Recv(ctx); err != nil || string(msg) != "hello" {
		t.Fatalf("recv: %q %v", msg, err)
	}
	buf := make([]byte, 256)
	mr, err := sep.RegisterMemory(buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cep.RegisterMemory(bytes.Repeat([]byte{0xAB}, 256))
	if err != nil {
		t.Fatal(err)
	}
	if err := cep.RDMAWrite(ctx, verbs.SGE{MR: src, Length: 256}, mr.Addr(), mr.RKey()); err != nil {
		t.Fatal(err)
	}
	if err := cep.RDMARead(ctx, verbs.SGE{MR: src, Length: 256}, mr.Addr(), mr.RKey()); err != nil {
		t.Fatal(err)
	}

	counts := reg.CounterSnapshot()
	if counts["ucr.dials"] != 1 {
		t.Fatalf("ucr.dials = %d, want 1 (pre-attach dial must not count)", counts["ucr.dials"])
	}
	if counts["ucr.recv.msgs"] != 1 || counts["ucr.recv.bytes"] != 5 {
		t.Fatalf("recv accounting: msgs=%d bytes=%d", counts["ucr.recv.msgs"], counts["ucr.recv.bytes"])
	}
	if counts["verbs.wc.total"] < 4 {
		t.Fatalf("verbs.wc.total = %d, want >= 4 (send, recv, write, read)", counts["verbs.wc.total"])
	}
	if counts["verbs.wc.errors"] != 0 {
		t.Fatalf("verbs.wc.errors = %d on a clean run", counts["verbs.wc.errors"])
	}
	snap := reg.Snapshot()
	for _, name := range []string{"ucr.send", "ucr.rdma.write", "ucr.rdma.read"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 1 {
			t.Fatalf("histogram %s: %+v (ok=%v), want exactly one observation", name, h, ok)
		}
	}

	// Detach: completion observer gone, future connects uninstrumented.
	f.SetRegistry(nil)
	post, err := f.Connect(ctx, cdev, "server", "svc")
	if err != nil {
		t.Fatal(err)
	}
	postSrv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Close()
	defer postSrv.Close()
	if post.metrics != nil {
		t.Fatal("endpoint connected after detach is still instrumented")
	}
	if got := reg.CounterSnapshot()["ucr.dials"]; got != 1 {
		t.Fatalf("detached dial counted: ucr.dials = %d", got)
	}
}

// TestDevRecvPlaneDeathFailsEndpoints: when the device-wide receive
// plane dies (the pump's CQ wait or SRQ repost errors), every end-point
// registered on the device must fail promptly — Recv callers unwind
// with a transport-classified error instead of blocking until their own
// contexts expire while peers pile into RNR retries.
func TestDevRecvPlaneDeathFailsEndpoints(t *testing.T) {
	cep, sep := connected(t)
	cdr := cep.dr
	recvErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cep.Recv(ctx)
		recvErr <- err
	}()
	cause := fmt.Errorf("simulated CQ teardown")
	cdr.failAll(cause)
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("Recv after plane death = %v, want ErrTransport", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after the receive plane died")
	}
	// The server side's plane is untouched; its endpoint still works for
	// sends from this side (one-directional check that failAll scoped to
	// one device only).
	ctx := ctxT(t)
	if err := sep.Send(ctx, []byte("late")); err != nil {
		t.Fatalf("server send after client plane death: %v", err)
	}
}
