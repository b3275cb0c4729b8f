package mrpool

import (
	"errors"
	"testing"

	"rdmamr/internal/obs"
	"rdmamr/internal/verbs"
)

func testPool(t *testing.T, slabBytes int64) *Pool {
	t.Helper()
	dev, err := verbs.NewNetwork().NewDevice("mrpool-test")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{dev: dev, slabBytes: DefaultSlabBytes}
	if slabBytes > 0 {
		p.slabBytes = slabBytes
	}
	return p
}

func TestForIsPerDevice(t *testing.T) {
	net := verbs.NewNetwork()
	a, _ := net.NewDevice("a")
	b, _ := net.NewDevice("b")
	if For(a) != For(a) {
		t.Fatal("same device must share one pool")
	}
	if For(a) == For(b) {
		t.Fatal("distinct devices must not share a pool")
	}
}

// TestSlabReuse: blocks carve out of one slab, frees return the space,
// and a full alloc/free cycle re-registers nothing.
func TestSlabReuse(t *testing.T) {
	p := testPool(t, 1<<20)
	a, err := p.Alloc(1000, "ring")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(2000, "ring")
	if err != nil {
		t.Fatal(err)
	}
	if a.MR() != b.MR() {
		t.Fatal("two small blocks did not share a slab")
	}
	pinned := p.PinnedBytes()
	if pinned != 1<<20 {
		t.Fatalf("pinned = %d, want one slab", pinned)
	}
	a.Free()
	b.Free()
	if p.InUseBytes() != 0 || p.OutstandingBlocks() != 0 {
		t.Fatalf("leak after frees: inUse=%d blocks=%d", p.InUseBytes(), p.OutstandingBlocks())
	}
	for i := 0; i < 100; i++ {
		blk, err := p.Alloc(10_000, "churn")
		if err != nil {
			t.Fatal(err)
		}
		blk.Free()
	}
	if p.PinnedBytes() != pinned {
		t.Fatalf("churn grew pinned bytes %d → %d: free-list reuse broken", pinned, p.PinnedBytes())
	}
}

// TestFreeCoalesces: adjacent freed carves merge, so a block as large
// as the sum fits without a new slab.
func TestFreeCoalesces(t *testing.T) {
	p := testPool(t, 1<<16)
	var blks []*Block
	for i := 0; i < 4; i++ {
		blk, err := p.Alloc(1<<14, "x") // 4 × 16KB fills the slab
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
	}
	for _, blk := range blks {
		blk.Free()
	}
	big, err := p.Alloc(1<<16, "x")
	if err != nil {
		t.Fatalf("coalesced slab rejected a slab-sized block: %v", err)
	}
	if p.PinnedBytes() != 1<<16 {
		t.Fatalf("pinned = %d, want one slab (no growth)", p.PinnedBytes())
	}
	big.Free()
}

// TestBudgetEnforced: the hard budget fails allocations instead of
// pinning past it, and failures are counted.
func TestBudgetEnforced(t *testing.T) {
	p := testPool(t, 1<<16)
	c := obs.NewRegistry()
	p.SetCounters(c)
	p.Configure(1<<16, 1<<16)
	a, err := p.Alloc(1<<14, "q") // under half a slab: it shares one
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Counter("mr.slab.bytes.pinned").Get(); got != 1<<16 {
		t.Fatalf("bytes.pinned = %d after a small carve, want one slab %d", got, 1<<16)
	}
	a.Free()
	a, err = p.Alloc(1<<14, "q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(1<<16, "q"); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget alloc = %v, want ErrBudget", err)
	}
	if c.Counter("mr.slab.failures").Get() != 1 {
		t.Fatalf("failures = %d, want 1", c.Counter("mr.slab.failures").Get())
	}
	if got := c.Counter("mr.slab.bytes.pinned").Get(); got != 1<<16 {
		t.Fatalf("bytes.pinned = %d, want %d", got, 1<<16)
	}
	// Freeing makes room within the already-pinned slab.
	a.Free()
	b, err := p.Alloc(1<<15, "q")
	if err != nil {
		t.Fatalf("alloc after free = %v", err)
	}
	b.Free()
}

// TestOversizeAllocGetsDedicatedSlab: a block larger than the slab size
// still works (its own right-sized slab).
func TestOversizeAllocGetsDedicatedSlab(t *testing.T) {
	p := testPool(t, 1<<12)
	blk, err := p.Alloc(1<<16, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Bytes()) != 1<<16 {
		t.Fatalf("len = %d", len(blk.Bytes()))
	}
	blk.Free()
}

// TestHalfSlabCarveGetsOwnSlab: a carve of half a slab or more is
// registered on its own, sized to it, and the carves after it share a
// full slab instead of the half it would have left.
func TestHalfSlabCarveGetsOwnSlab(t *testing.T) {
	p := testPool(t, 1<<16)
	big, err := p.Alloc(1<<15, "ucr.recv")
	if err != nil {
		t.Fatal(err)
	}
	if p.PinnedBytes() != 1<<15 {
		t.Fatalf("pinned = %d after a half-slab carve, want %d", p.PinnedBytes(), 1<<15)
	}
	var rings []*Block
	for range 4 {
		r, err := p.Alloc(15<<10, "ring")
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, r)
	}
	if want := int64(1<<15 + 1<<16); p.PinnedBytes() != want {
		t.Fatalf("pinned = %d, want the half-slab carve plus one slab, %d", p.PinnedBytes(), want)
	}
	for _, r := range rings {
		r.Free()
	}
	big.Free()
}

// TestSmallCarvesLeaveRingHolesWhole: small blocks carved while rings
// come and go take the top of the slab, so a freed ring's hole stays a
// ring's size and the next rings fit without a second slab. First fit
// put the small block at the start of the hole and registered a slab.
func TestSmallCarvesLeaveRingHolesWhole(t *testing.T) {
	p := testPool(t, 1<<16)
	const ring = 15 << 10 // large: a sixteenth of a slab or more
	s1, _ := p.Alloc(512, "send")
	var rings []*Block
	for range 4 {
		r, err := p.Alloc(ring, "ring")
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, r)
	}
	rings[0].Free()
	rings[1].Free()
	s2, _ := p.Alloc(512, "stage")
	for i := range 2 {
		r, err := p.Alloc(ring, "ring")
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	if p.PinnedBytes() != 1<<16 {
		t.Fatalf("pinned = %d, want one slab: a small carve split a ring's hole", p.PinnedBytes())
	}
	for _, r := range rings {
		r.Free()
	}
	s1.Free()
	s2.Free()
	if p.OutstandingBlocks() != 0 || p.InUseBytes() != 0 {
		t.Fatalf("blocks %d, in use %d after every free", p.OutstandingBlocks(), p.InUseBytes())
	}
}

// TestAttributionByClass tracks per-subsystem in-use bytes.
func TestAttributionByClass(t *testing.T) {
	p := testPool(t, 1<<20)
	r, _ := p.Alloc(4096, "ring")
	h, _ := p.Alloc(4096, "header")
	attr := p.Attribution()
	if attr["ring"] != 4096 || attr["header"] != 4096 {
		t.Fatalf("attribution = %v", attr)
	}
	r.Free()
	h.Free()
	if attr := p.Attribution(); len(attr) != 0 {
		t.Fatalf("attribution after frees = %v, want empty", attr)
	}
}

// TestRemoteBlockWindowLifecycle: AllocRemote advertises a window rkey
// distinct from the slab's, and Free invalidates it so stale remote
// descriptors fault instead of reading reused slab space.
func TestRemoteBlockWindowLifecycle(t *testing.T) {
	p := testPool(t, 1<<20)
	blk, err := p.AllocRemote(8192, "ring")
	if err != nil {
		t.Fatal(err)
	}
	if blk.RKey() == 0 || blk.Addr() == 0 {
		t.Fatal("remote block has no advertisable rkey/addr")
	}
	if blk.RKey() == blk.MR().RKey() {
		t.Fatal("remote block advertises the raw slab rkey — Free could not revoke it")
	}
	win := blk.Window()
	blk.Free()
	if !win.Dead() {
		t.Fatal("window survived Free: stale remote RDMA would hit reused slab bytes")
	}
}

// TestDoubleFreePanics: the accountant's books are strict.
func TestDoubleFreePanics(t *testing.T) {
	p := testPool(t, 1<<16)
	blk, _ := p.Alloc(64, "x")
	blk.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	blk.Free()
}

// TestCountersReplayPinnedBytes: wiring counters after slabs exist
// replays the absolute pinned gauge.
func TestCountersReplayPinnedBytes(t *testing.T) {
	p := testPool(t, 1<<16)
	blk, _ := p.Alloc(64, "x")
	c := obs.NewRegistry()
	p.SetCounters(c)
	if got := c.Counter("mr.slab.bytes.pinned").Get(); got != 1<<16 {
		t.Fatalf("replayed bytes.pinned = %d, want %d", got, 1<<16)
	}
	blk.Free()
}

// TestBlockBytesCapacityClamped: Bytes() must clamp capacity to the
// block length, so an append past Len() reallocates to the heap instead
// of growing in place over the neighbouring carve (which belongs to
// another owner — a header encode overflowing its block must never
// scribble on an adjacent stage or receive buffer).
func TestBlockBytesCapacityClamped(t *testing.T) {
	p := testPool(t, 1<<16)
	a, err := p.Alloc(64, "hdr")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(64, "stage")
	if err != nil {
		t.Fatal(err)
	}
	if a.MR() != b.MR() {
		t.Fatal("test needs both blocks in one slab")
	}
	if got := cap(a.Bytes()); got != a.Len() {
		t.Fatalf("cap(Bytes()) = %d, want %d: append can cross into the next carve", got, a.Len())
	}
	for i := range b.Bytes() {
		b.Bytes()[i] = 0xEE
	}
	buf := a.Bytes()[:0]
	for i := 0; i < 4*a.Len(); i++ {
		buf = append(buf, 0x11) // overflows a: must reallocate, not spill
	}
	for i, c := range b.Bytes() {
		if c != 0xEE {
			t.Fatalf("neighbouring block corrupted at byte %d", i)
		}
	}
	a.Free()
	b.Free()
}

// TestFreeCoalescesOutOfOrder: release's in-place sorted insert must
// merge correctly whatever order carves come back in.
func TestFreeCoalescesOutOfOrder(t *testing.T) {
	p := testPool(t, 1<<16)
	var blks []*Block
	for i := 0; i < 8; i++ {
		blk, err := p.Alloc(1<<13, "x") // 8 × 8KB fills the slab
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
	}
	for _, i := range []int{5, 1, 7, 3, 0, 6, 2, 4} {
		blks[i].Free()
	}
	big, err := p.Alloc(1<<16, "x")
	if err != nil {
		t.Fatalf("out-of-order frees did not coalesce: %v", err)
	}
	if p.PinnedBytes() != 1<<16 {
		t.Fatalf("pinned = %d, want one slab (no growth)", p.PinnedBytes())
	}
	big.Free()
	if p.InUseBytes() != 0 || p.OutstandingBlocks() != 0 {
		t.Fatalf("leak: inUse=%d blocks=%d", p.InUseBytes(), p.OutstandingBlocks())
	}
}

// TestCloseDeregistersAndForgets: closing the device closes its pool, which
// deregisters every slab and empties its books and gauge. A block freed
// after that changes nothing and does not panic, and nothing more can be
// carved.
func TestCloseDeregistersAndForgets(t *testing.T) {
	dev, err := verbs.NewNetwork().NewDevice("mrpool-close")
	if err != nil {
		t.Fatal(err)
	}
	p := For(dev)
	if For(dev) != p {
		t.Fatal("For returned a second pool for the device")
	}
	c := obs.NewRegistry()
	p.SetCounters(c)
	kept, err := p.AllocRemote(4096, "kept")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(64, "leaked"); err != nil {
		t.Fatal(err)
	}
	dev.Close()
	if !kept.MR().Dead() {
		t.Fatal("slab still registered after the device closed")
	}
	kept.Free()
	if p.PinnedBytes() != 0 || p.InUseBytes() != 0 || p.OutstandingBlocks() != 0 || len(p.Attribution()) != 0 {
		t.Fatalf("closed pool: pinned %d, in use %d, %d blocks (%v), want nothing",
			p.PinnedBytes(), p.InUseBytes(), p.OutstandingBlocks(), p.Attribution())
	}
	if got := c.Counter("mr.slab.bytes.pinned").Get(); got != 0 {
		t.Fatalf("mr.slab.bytes.pinned = %d after Close, want 0", got)
	}
	if _, err := p.Alloc(64, "late"); !errors.Is(err, verbs.ErrClosed) {
		t.Fatalf("Alloc after Close = %v, want verbs.ErrClosed", err)
	}
}
