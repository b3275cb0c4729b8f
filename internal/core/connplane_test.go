package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/stats"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// planeHarness stands up a real ucr fabric with one client device and an
// echo responder per "host": whatever bytes a lease sends come straight
// back, so a test can inject any tagged frame it likes and watch the
// pump route it. Each harness gets fresh devices, hence a fresh plane —
// planeFor is process-global, keyed by device.
type planeHarness struct {
	t      *testing.T
	fab    *ucr.Fabric
	dev    *verbs.Device
	plane  *connPlane
	c      *stats.Counters
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	dials map[string]int
}

func newPlaneHarness(t *testing.T) *planeHarness {
	t.Helper()
	fab := ucr.NewFabric()
	dev, err := fab.NewDevice(t.Name() + "-client")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	h := &planeHarness{
		t: t, fab: fab, dev: dev, plane: planeFor(dev),
		c: &stats.Counters{}, ctx: ctx, cancel: cancel,
		dials: make(map[string]int),
	}
	return h
}

// serve registers an echo responder for host and returns once it accepts.
func (h *planeHarness) serve(host string) {
	h.t.Helper()
	dev, err := h.fab.NewDevice(host)
	if err != nil {
		h.t.Fatal(err)
	}
	l, err := h.fab.Listen(dev, "plane")
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(l.Close)
	go func() {
		for {
			ep, err := l.Accept(h.ctx)
			if err != nil {
				return
			}
			go func() {
				defer ep.Close()
				for {
					msg, err := ep.Recv(h.ctx)
					if err != nil {
						return
					}
					if err := ep.Send(h.ctx, msg); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// dial is the plane's dial callback, counting invocations per host.
func (h *planeHarness) dial(host string) func(context.Context) (*ucr.EndPoint, error) {
	return func(ctx context.Context) (*ucr.EndPoint, error) {
		h.mu.Lock()
		h.dials[host]++
		h.mu.Unlock()
		return h.fab.Connect(ctx, h.dev, host, "plane")
	}
}

func (h *planeHarness) dialCount(host string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials[host]
}

// acquire wraps plane.acquire with the harness dialer and a fatal on error.
func (h *planeHarness) acquire(host string) *connLease {
	h.t.Helper()
	l, _, err := h.plane.acquire(h.ctx, host, 8, h.dial(host))
	if err != nil {
		h.t.Fatalf("acquire %s: %v", host, err)
	}
	return l
}

// hosts reports which hosts currently have cached connections.
func (h *planeHarness) hosts() map[string]bool {
	h.plane.mu.Lock()
	defer h.plane.mu.Unlock()
	out := make(map[string]bool, len(h.plane.conns))
	for host := range h.plane.conns {
		out[host] = true
	}
	return out
}

// echo sends a DataResponse frame carrying tag through the via lease and
// returns it once the responder bounces it back and the pump routes it —
// the caller picks which lease it should land on.
func (h *planeHarness) echo(via, on *connLease, tag uint32) *wire.DataResponse {
	h.t.Helper()
	resp := &wire.DataResponse{MapID: int32(tag), Tag: tag}
	if err := via.Send(h.ctx, resp.Encode()); err != nil {
		h.t.Fatalf("send: %v", err)
	}
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	lm, err := on.Recv(ctx)
	if err != nil {
		h.t.Fatalf("recv tag %#x: %v", tag, err)
	}
	if lm.man != nil {
		h.t.Fatalf("recv tag %#x: got manifest, want response", tag)
	}
	return &lm.resp
}

// TestConnPlaneSharesEndpoint: two leases to the same host share one
// dialed connection, partition the tag space, and the pump routes each
// frame to the lease owning its high 16 bits — even when the frame was
// sent through the other lease's handle (same endpoint underneath).
func TestConnPlaneSharesEndpoint(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")

	l1 := h.acquire("tt1")
	l2 := h.acquire("tt1")
	defer l1.Close(false, nil)
	defer l2.Close(false, nil)

	if got := h.plane.open(); got != 1 {
		t.Fatalf("open connections = %d, want 1 (shared)", got)
	}
	if h.dialCount("tt1") != 1 {
		t.Fatalf("dialed %d times, want 1", h.dialCount("tt1"))
	}
	if h.c.Get("shuffle.rdma.conn.opened") != 1 || h.c.Get("shuffle.rdma.conn.reused") != 1 {
		t.Fatalf("opened=%d reused=%d, want 1/1",
			h.c.Get("shuffle.rdma.conn.opened"), h.c.Get("shuffle.rdma.conn.reused"))
	}
	if l1.Gen() != l2.Gen() {
		t.Fatal("leases on one connection report different generations")
	}
	if l1.Tag(3)>>16 == l2.Tag(3)>>16 {
		t.Fatalf("leases share tag space: %#x vs %#x", l1.Tag(3), l2.Tag(3))
	}
	if l1.Tag(3)&0xffff != 3 {
		t.Fatalf("slot not preserved in low bits: %#x", l1.Tag(3))
	}

	if resp := h.echo(l1, l1, l1.Tag(7)); resp.Tag != l1.Tag(7) {
		t.Fatalf("l1 got tag %#x, want %#x", resp.Tag, l1.Tag(7))
	}
	// Cross-send: frame tagged for l2 but written through l1's handle
	// still lands on l2 — routing is by tag, not by sender.
	if resp := h.echo(l1, l2, l2.Tag(9)); resp.Tag != l2.Tag(9) {
		t.Fatalf("l2 got tag %#x, want %#x", resp.Tag, l2.Tag(9))
	}
}

// TestConnPlaneSplitsBatchByTag: a batch of answers is routed answer by
// answer, each to the lease its own tag names, and every answer but a
// lease's last in the frame is marked as followed. A nested batch is a
// protocol violation that kills the connection under every lease.
func TestConnPlaneSplitsBatchByTag(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")
	l1 := h.acquire("tt1")
	l2 := h.acquire("tt1")
	defer l1.Close(false, nil)
	defer l2.Close(false, nil)

	var b wire.Batch
	b.Reset(nil)
	for _, tag := range []uint32{l1.Tag(1), l2.Tag(2), l1.Tag(3)} {
		b.AddResponse(&wire.DataResponse{MapID: int32(tag & 0xffff), Tag: tag})
	}
	frame, _ := b.Frame()
	if err := l1.Send(h.ctx, frame); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	for _, want := range []struct {
		on   *connLease
		tag  uint32
		more bool
	}{
		{l1, l1.Tag(1), true},
		{l1, l1.Tag(3), false},
		{l2, l2.Tag(2), false},
	} {
		lm, err := want.on.Recv(ctx)
		if err != nil {
			t.Fatalf("recv tag %#x: %v", want.tag, err)
		}
		if lm.man != nil || lm.resp.Tag != want.tag || lm.more != want.more {
			t.Fatalf("got %+v (more %v), want tag %#x more %v", lm.resp, lm.more, want.tag, want.more)
		}
	}

	one := (&wire.DataResponse{Tag: l1.Tag(4)}).Encode()
	nested := []byte{wire.TypeBatch, byte(len(one)), 0}
	nested = append(nested, one...)
	nested = append(nested, byte(len(frame)), byte(len(frame)>>8))
	nested = append(nested, frame...)
	if err := l1.Send(h.ctx, nested); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*connLease{l1, l2} {
		if _, err := l.Recv(ctx); !errors.Is(err, errProtocol) {
			t.Fatalf("recv after a nested batch: %v, want a protocol violation", err)
		}
	}
}

// TestConnPlaneSingleflightDial: concurrent acquirers to an undailed host
// share exactly one dial; the losers wait on ready and count as reuses.
func TestConnPlaneSingleflightDial(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")

	const n = 8
	var wg sync.WaitGroup
	leases := make([]*connLease, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leases[i], _, errs[i] = h.plane.acquire(h.ctx, "tt1", 4, h.dial("tt1"))
		}(i)
	}
	wg.Wait()
	seqs := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("acquire %d: %v", i, errs[i])
		}
		seq := leases[i].Tag(0) >> 16
		if seqs[seq] {
			t.Fatalf("duplicate lease seq %d", seq)
		}
		seqs[seq] = true
		defer leases[i].Close(false, nil)
	}
	if h.dialCount("tt1") != 1 {
		t.Fatalf("dialed %d times for %d concurrent acquirers, want 1", h.dialCount("tt1"), n)
	}
	if h.plane.open() != 1 {
		t.Fatalf("open = %d, want 1", h.plane.open())
	}
	if got := h.c.Get("shuffle.rdma.conn.reused"); got != n-1 {
		t.Fatalf("reused = %d, want %d", got, n-1)
	}
}

// TestConnPlaneDialFailureSharedOnce: a failed dial surfaces to the
// acquirer with a non-zero generation (so health dedupe can charge the
// failure once) and leaves nothing cached — the next acquire redials.
func TestConnPlaneDialFailureSharedOnce(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)

	boom := errors.New("no route to tt9")
	var dials atomic.Int64
	failDial := func(context.Context) (*ucr.EndPoint, error) {
		dials.Add(1)
		return nil, boom
	}
	_, gen1, err := h.plane.acquire(h.ctx, "tt9", 4, failDial)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if gen1 == 0 {
		t.Fatal("failed dial reported generation 0: health dedupe cannot key on it")
	}
	if h.plane.open() != 0 {
		t.Fatal("failed dial left a cached connection")
	}
	_, gen2, err := h.plane.acquire(h.ctx, "tt9", 4, failDial)
	if !errors.Is(err, boom) {
		t.Fatalf("second err = %v", err)
	}
	if gen2 == gen1 {
		t.Fatal("second dial attempt reused the failed generation")
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2", dials.Load())
	}
}

// TestConnPlaneLRUCapEvictsOldestIdle: over the cap, the plane retires
// the least-recently-used connection among those with no leases.
func TestConnPlaneLRUCapEvictsOldestIdle(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(2, time.Hour, h.c)
	clock := time.Unix(1000, 0)
	h.plane.now = func() time.Time { return clock }
	for _, host := range []string{"ttA", "ttB", "ttC"} {
		h.serve(host)
	}

	h.acquire("ttA").Close(false, nil) // lastUse t=1000
	clock = clock.Add(time.Second)
	h.acquire("ttB").Close(false, nil) // lastUse t=1001
	clock = clock.Add(time.Second)

	lc := h.acquire("ttC") // cache now {A idle, B idle, C busy}: over cap 2
	defer lc.Close(false, nil)
	if got := h.plane.open(); got != 2 {
		t.Fatalf("open = %d after cap enforcement, want 2", got)
	}
	hosts := h.hosts()
	if hosts["ttA"] || !hosts["ttB"] || !hosts["ttC"] {
		t.Fatalf("cache = %v, want oldest idle (ttA) evicted", hosts)
	}
	if got := h.c.Get("shuffle.rdma.conn.evicted"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
}

// TestConnPlaneBusyConnSurvivesCap is satellite (b)'s pinning test: a
// connection with a live lease is never an eviction victim no matter how
// far over cap the plane runs, so an in-flight READ lease can never race
// its ring MR teardown. The plane trims back down only once the lease
// closes.
func TestConnPlaneBusyConnSurvivesCap(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(1, time.Hour, h.c)
	clock := time.Unix(2000, 0)
	h.plane.now = func() time.Time { return clock }
	for _, host := range []string{"ttA", "ttB", "ttC"} {
		h.serve(host)
	}

	la := h.acquire("ttA") // held: ttA is busy and must survive
	clock = clock.Add(time.Second)
	h.acquire("ttB").Close(false, nil) // idle cache entry
	clock = clock.Add(time.Second)
	lc := h.acquire("ttC") // over cap: only idle ttB is evictable

	hosts := h.hosts()
	if !hosts["ttA"] {
		t.Fatal("busy connection evicted while its lease was live")
	}
	if hosts["ttB"] {
		t.Fatal("idle connection survived while the plane was over cap")
	}
	// Both held connections are over cap (2 > 1) — allowed while busy.
	if got := h.plane.open(); got != 2 {
		t.Fatalf("open = %d, want 2 (cap overrun while busy)", got)
	}

	// The surviving busy connection must still be fully usable: a tagged
	// frame round-trips through its endpoint and pump.
	if resp := h.echo(la, la, la.Tag(1)); resp.Tag != la.Tag(1) {
		t.Fatalf("busy conn unusable after cap pressure: tag %#x", resp.Tag)
	}

	// Once the leases close the plane trims back to cap on next demand.
	la.Close(false, nil)
	lc.Close(false, nil)
	clock = clock.Add(time.Second)
	h.acquire("ttB").Close(false, nil)
	if got := h.plane.open(); got != 1 {
		t.Fatalf("open = %d after leases closed, want cap 1", got)
	}
}

// TestConnPlaneIdleSweep: a connection nobody has leased for the idle
// timeout is retired by the opportunistic sweep at the next lease close.
func TestConnPlaneIdleSweep(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(8, 50*time.Millisecond, h.c)
	clock := time.Unix(3000, 0)
	h.plane.now = func() time.Time { return clock }
	h.serve("ttA")
	h.serve("ttB")

	h.acquire("ttA").Close(false, nil)
	clock = clock.Add(100 * time.Millisecond) // ttA now past the idle deadline
	h.acquire("ttB").Close(false, nil)        // this Close's sweep collects ttA

	hosts := h.hosts()
	if hosts["ttA"] {
		t.Fatal("idle connection survived the sweep")
	}
	if !hosts["ttB"] {
		t.Fatal("freshly used connection swept")
	}
	if got := h.c.Get("shuffle.rdma.conn.evicted"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
}

// TestConnPlaneStrayFrames: a frame tagged for a departed lease is
// counted and dropped, not delivered to anyone — the late-responder-write
// case the D13 design note calls out.
func TestConnPlaneStrayFrames(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")

	dead := h.acquire("tt1")
	deadTag := dead.Tag(0)
	dead.Close(false, nil) // conn stays cached; lease seq retired

	live := h.acquire("tt1")
	defer live.Close(false, nil)
	if err := live.Send(h.ctx, (&wire.DataResponse{Tag: deadTag}).Encode()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.c.Get("shuffle.rdma.conn.strays") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stray frame never counted")
		}
		time.Sleep(time.Millisecond)
	}
	// The live lease saw nothing: its next frame is its own, in order.
	if resp := h.echo(live, live, live.Tag(2)); resp.Tag != live.Tag(2) {
		t.Fatalf("stray leaked into live lease: tag %#x", resp.Tag)
	}
}

// TestConnLeaseDrainsBufferedOnDeath: frames already routed to a lease
// are delivered before the connection's cause of death surfaces, so no
// acknowledged payload is lost to a later failure.
func TestConnLeaseDrainsBufferedOnDeath(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")

	l := h.acquire("tt1")
	for slot := uint32(0); slot < 2; slot++ {
		if err := l.Send(h.ctx, (&wire.DataResponse{Tag: l.Tag(slot)}).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(l.msgs) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames buffered", len(l.msgs))
		}
		time.Sleep(time.Millisecond)
	}

	boom := fmt.Errorf("injected conn death")
	l.sc.kill(boom)
	for slot := uint32(0); slot < 2; slot++ {
		lm, err := l.Recv(h.ctx)
		if err != nil {
			t.Fatalf("buffered frame %d lost to conn death: %v", slot, err)
		}
		if lm.resp.Tag != l.Tag(slot) {
			t.Fatalf("frame %d out of order: tag %#x", slot, lm.resp.Tag)
		}
	}
	if _, err := l.Recv(h.ctx); !errors.Is(err, boom) {
		t.Fatalf("post-drain Recv = %v, want cause %v", err, boom)
	}
	l.Close(false, boom)
	if h.plane.open() != 0 {
		t.Fatal("killed connection still cached")
	}
}

// TestConnPlaneEvictionNeverFailsAttachedLease: the documented invariant
// — only refs==0 connections are evicted, so a lease never observes
// errConnEvicted. Regression for the TOCTOU where enforceCap/sweepIdle
// read refs==0, dropped the locks, and tore the connection down while a
// concurrent acquire (which attaches under sc.mu only) slipped a lease
// on; the eviction claim now re-checks refs under sc.mu. An aggressive
// sweep (1ns idle, cap 1, two hosts) against hammering acquirers drives
// exactly that interleaving.
func TestConnPlaneEvictionNeverFailsAttachedLease(t *testing.T) {
	h := newPlaneHarness(t)
	h.serve("evict-a")
	h.serve("evict-b")
	h.plane.configure(1, time.Nanosecond, h.c)
	hosts := []string{"evict-a", "evict-b"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				host := hosts[(g+i)%len(hosts)]
				l, _, err := h.plane.acquire(h.ctx, host, 8, h.dial(host))
				if err != nil {
					t.Errorf("acquire %s: %v", host, err)
					return
				}
				// No transport failures happen in this test, so a closed
				// done channel means the plane evicted a conn with a lease
				// attached.
				select {
				case <-l.done:
					t.Errorf("lease evicted while attached: %v", l.sc.connErr())
					return
				default:
				}
				l.Close(false, nil)
			}
		}(g)
	}
	wg.Wait()
}

// TestConnPlaneStalledLeaseDoesNotStallOthers: answers are routed on the
// device's receive pump, which never waits for a lease (D25). A lease that
// never reads holds its whole depth of answers while another lease on the
// same connection keeps receiving. One answer past that depth was never
// asked for: it kills that connection as a protocol violation, and nothing
// else — a lease on another host's connection, fed by the same device
// pump, still receives.
func TestConnPlaneStalledLeaseDoesNotStallOthers(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")
	h.serve("tt2")
	stalled := h.acquire("tt1")
	busy := h.acquire("tt1")
	other := h.acquire("tt2")
	defer stalled.Close(false, nil)
	defer busy.Close(false, nil)
	defer other.Close(false, nil)

	depth := cap(stalled.msgs)
	for slot := 0; slot < depth; slot++ {
		if err := stalled.Send(h.ctx, (&wire.DataResponse{Tag: stalled.Tag(uint32(slot))}).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	for slot := uint32(0); slot < 3; slot++ {
		if resp := h.echo(busy, busy, busy.Tag(slot)); resp.Tag != busy.Tag(slot) {
			t.Fatalf("busy lease got tag %#x, want %#x", resp.Tag, busy.Tag(slot))
		}
	}
	if got := len(stalled.msgs); got != depth {
		t.Fatalf("the stalled lease holds %d answers, want its whole depth %d", got, depth)
	}

	if err := stalled.Send(h.ctx, (&wire.DataResponse{Tag: stalled.Tag(0)}).Encode()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	if _, err := busy.Recv(ctx); !errors.Is(err, errProtocol) {
		t.Fatalf("busy lease after an answer overflowed its sharer: %v, want a protocol violation", err)
	}
	if resp := h.echo(other, other, other.Tag(1)); resp.Tag != other.Tag(1) {
		t.Fatalf("lease on another connection got tag %#x, want %#x", resp.Tag, other.Tag(1))
	}
}

// TestConnPlaneRoutedAnswerOutlivesReceiveBuffer: the plane decodes
// answers straight from the device's SRQ buffer, which is reposted once
// the frame is routed. A header and a manifest routed to a lease are the
// lease's own: after every receive buffer on the device has been reposted
// and overwritten by later frames, both read exactly as they were sent.
func TestConnPlaneRoutedAnswerOutlivesReceiveBuffer(t *testing.T) {
	h := newPlaneHarness(t)
	h.plane.configure(4, time.Hour, h.c)
	h.serve("tt1")
	l := h.acquire("tt1")
	defer l.Close(false, nil)
	gone := h.acquire("tt1")
	goneTag := gone.Tag(0)
	gone.Close(false, nil)

	resp := wire.DataResponse{MapID: 3, ReduceID: 1, Offset: 4096, Bytes: 100, Records: 2,
		Err: "kept after the buffer is reused", Tag: l.Tag(1), Transient: true}
	man := wire.ReadManifest{MapID: 4, ReduceID: 1, Tag: l.Tag(2), LeaseID: 9, RKey: 7,
		Chunks: []wire.ReadChunk{
			{Offset: 0, Bytes: 64, Records: 1, Ranges: []wire.ReadRange{{Addr: 0x1000, Len: 64}}},
			{Offset: 64, Bytes: 96, Records: 2, EOF: true,
				Ranges: []wire.ReadRange{{Addr: 0x2000, Len: 32}, {Addr: 0x3000, Len: 64}}},
		}}
	var b wire.Batch
	b.Reset(nil)
	b.AddResponse(&resp)
	b.AddManifest(&man)
	frame, _ := b.Frame()
	if err := l.Send(h.ctx, frame); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	first, err := l.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Strays for the departed lease, each as long as the first frame and
	// of other bytes, through every receive buffer on the device.
	filler := (&wire.DataResponse{Tag: goneTag, Err: strings.Repeat("\xa5", len(frame))}).Encode()
	strays := h.c.Get("shuffle.rdma.conn.strays")
	for i := 0; i < ucr.SRQDepth+1; i++ {
		if err := l.Send(h.ctx, filler); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return h.c.Get("shuffle.rdma.conn.strays")-strays == ucr.SRQDepth+1 })

	if first.man != nil || first.resp != resp || !first.more {
		t.Fatalf("routed header now reads %+v (more %v), sent %+v followed by a manifest", first.resp, first.more, resp)
	}
	if second.man == nil || !reflect.DeepEqual(*second.man, man) || second.more {
		t.Fatalf("routed manifest now reads %+v, sent %+v", second.man, man)
	}
}
