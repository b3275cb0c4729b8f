package core

import (
	"testing"
	"time"

	"rdmamr/internal/obs"
)

// obsDisabledHotPath is the exact observability sequence the copier's
// host loops execute per delivered chunk when the job's record is off
// (tr == nil): the nil-gated request stamp and slot wait, the nil-gated
// span stamped into the chunk, the nil-gated span finished and added as
// the merge picks it up, and the pre-resolved counter handles of the
// reducer node's registry.
func obsDisabledHotPath(f *fetcher, i int) chunk {
	// request: the enqueue stamp.
	req := chunkReq{offset: int64(i)}
	if f.tr != nil {
		req.enq = time.Now()
	}
	// send and issue: the slot wait, occupancy accounting.
	var slotWait time.Duration
	if f.tr != nil {
		slotWait = time.Since(req.enq)
	}
	f.cOutPeak.Max(int64(i & 7))
	// complete: byte accounting plus the gated span.
	ck := chunk{off: req.offset}
	if f.tr != nil {
		ck.span = f.span(obs.KindFetch, req.enq, time.Time{})
		ck.span.SlotWait = slotWait
	}
	f.cBytes.Add(1024)
	f.cPackets.Add(1)
	// loadChunk: the gated merge-wait clock and span record.
	var waitStart time.Time
	if f.tr != nil {
		waitStart = time.Now()
	}
	if f.tr != nil && ck.err == nil {
		now := time.Now()
		ck.span.End, ck.span.MergeWait = now, now.Sub(waitStart)
		f.tr.Add(ck.span)
	}
	return ck
}

func disabledFetcher() *fetcher {
	f := &fetcher{} // tr == nil IS the record off
	c := obs.NewRegistry()
	f.cBytes = c.Counter("shuffle.rdma.bytes")
	f.cPackets = c.Counter("shuffle.rdma.packets")
	f.cOutPeak = c.Counter("shuffle.rdma.outstanding.peak")
	return f
}

// TestObsDisabledZeroAllocs pins the nil-is-disabled claim (D7): the
// disabled hot path must not allocate at all.
func TestObsDisabledZeroAllocs(t *testing.T) {
	f := disabledFetcher()
	avg := testing.AllocsPerRun(1000, func() {
		_ = obsDisabledHotPath(f, 3)
	})
	if avg != 0 {
		t.Fatalf("disabled obs hot path allocates %.2f objects/op, want 0", avg)
	}
}
