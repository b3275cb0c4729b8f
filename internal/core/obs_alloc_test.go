package core

import (
	"testing"

	"rdmamr/internal/obs"
	"rdmamr/internal/stats"
)

// obsDisabledHotPath is the exact observability sequence the copier's
// host loops execute per delivered chunk when profiling and tracing are off
// (prof == nil, tr == nil): the nil-gated span construction, the
// nil-profile no-op methods, the nil-gated trace record, and the
// pre-resolved counter handles (cluster AND node registries).
func obsDisabledHotPath(f *fetcher, i int) chunk {
	// issue: occupancy accounting.
	f.cOutPeak.Max(int64(i & 7))
	f.prof.SlotOccupancy(i & 7)
	// complete: byte accounting (cluster + node telemetry handles) plus
	// the gated span.
	ck := chunk{off: int64(i)}
	if f.prof != nil {
		ck.span = &obs.FetchSpan{}
	}
	f.cBytes.Add(1024)
	f.cPackets.Add(1)
	f.cRecvBytes.Add(1024)
	f.nFetchBytes.Add(1024)
	f.nFetchChunks.Add(1)
	// loadChunk: profile lookup and the gated stall/span/trace
	// bookkeeping.
	if prof := f.prof; prof != nil {
		prof.MergeStall(0)
		if sp := ck.span; sp != nil {
			prof.AddSpan(sp)
			if f.tr != nil {
				f.tr.Fetch("node0", "fetch r0<-node1", "fetch m0", sp.Enqueued, sp.Enqueued, nil)
			}
		}
	}
	return ck
}

func disabledFetcher() *fetcher {
	f := &fetcher{} // prof == nil IS the disabled profiler, tr == nil IS tracing off
	var c stats.Counters
	f.cBytes = c.Handle("shuffle.rdma.bytes")
	f.cPackets = c.Handle("shuffle.rdma.packets")
	f.cRecvBytes = c.Handle("shuffle.rdma.recv.bytes")
	f.cOutPeak = c.Handle("shuffle.rdma.outstanding.peak")
	// Node registry absent (telemetry off): nil handles must be free.
	var nreg *obs.Registry
	f.nFetchBytes = nreg.Counter("node.fetch.bytes")
	f.nFetchChunks = nreg.Counter("node.fetch.chunks")
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
