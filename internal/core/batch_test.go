package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/verbs"
)

// fetchAllQueued is ringHarness.fetch with every map's first request
// queued before the host connection starts, so the send pump's first
// batch is as full as the ring allows. The supervisor consults the host's
// health before it dials; holding that record's lock keeps it there until
// the queue is full.
func (h *ringHarness) fetchAllQueued(ctx context.Context) {
	h.t.Helper()
	ph := healthFor(h.tt.Device(), h.tt.Host())
	ph.mu.Lock()
	held := true
	defer func() {
		if held {
			ph.mu.Unlock()
		}
	}()
	h.fetchThen(ctx, func(f *fetcher) {
		p := f.peers[h.tt.Host()]
		waitFor(h.t, func() bool { return p.queued() >= h.numMaps })
		ph.mu.Unlock()
		held = false
	})
}

// TestBatchedRequestsWarmEagerFetch: sixteen partitions of one host, all
// asked for at once, leave the reducer in at most ⌈16/5⌉ + 1 request SENDs
// at depth 5 — every request the send pump has a slot for rides in one
// batch — and come back in no more answer SENDs, each request answered in
// its own slot: the merged stream is the planted one, record for record.
func TestBatchedRequestsWarmEagerFetch(t *testing.T) {
	const maps, depth = 16, 5
	conf := plantConf(false)
	conf.SetInt(config.KeyRDMAOutstandingPerConn, depth)
	h := plantHarness(t, conf, maps, 4<<10)
	h.drain() // warm: the plane's endpoint is dialed
	c := h.tt.Counters()
	before := c.Snapshot()
	delta := func(name string) int64 { return c.Get(name) - before[name] }
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetchAllQueued(ctx)

	packets, requests, answers := delta("shuffle.rdma.packets"), delta("shuffle.rdma.request.msgs"), delta("shuffle.rdma.answer.msgs")
	t.Logf("%d chunks: %d request SENDs, %d answer SENDs", packets, requests, answers)
	if packets != maps {
		t.Fatalf("%d chunks delivered, want one per partition (%d)", packets, maps)
	}
	// A batch holds at most one request per slot, so ⌈16/5⌉ is the floor.
	if least, most := int64((maps+depth-1)/depth), int64((maps+depth-1)/depth+1); requests < least || requests > most {
		t.Errorf("%d request SENDs for %d requests at depth %d, want %d to %d", requests, maps, depth, least, most)
	}
	if answers > requests {
		t.Errorf("%d answer SENDs for %d request SENDs: a batch was answered in more than one", answers, requests)
	}
}

// severNth severs the QP under the nth RDMA write it sees, calling fired
// first, in the writer's goroutine; then it goes quiet.
type severNth struct {
	mu    sync.Mutex
	n     int
	fired func()
}

func (s *severNth) SendVerdict(_, _ string, op verbs.Opcode, _ int) verbs.FaultVerdict {
	if op != verbs.OpRDMAWrite {
		return verbs.FaultVerdict{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n--; s.n != 0 {
		return verbs.FaultVerdict{}
	}
	s.fired()
	return verbs.FaultVerdict{Action: verbs.FaultSeverQP}
}

func (s *severNth) DialRefused(_, _ string) bool { return false }

// TestBatchSeveredMidWriteReissuesOnce: the connection dies under the
// responder while it writes the payloads of a full first batch — on its
// first write, or its last. The batch's answers go out in one SEND after
// the last write, so none has gone out when the write fails, and none
// arrives: every request of the batch is re-issued exactly once on the
// next connection and answered exactly once there, the stream is intact
// with no map re-run, and no staging block is left behind.
func TestBatchSeveredMidWriteReissuesOnce(t *testing.T) {
	const maps, depth = 16, 5
	for _, k := range []int{1, depth} {
		t.Run(fmt.Sprintf("write-%d-of-%d", k, depth), func(t *testing.T) {
			conf := plantConf(false)
			conf.SetInt(config.KeyRDMAOutstandingPerConn, depth)
			h := plantHarness(t, conf, maps, 4<<10)
			h.drain()
			c := h.tt.Counters()
			before := c.Snapshot()
			delta := func(name string) int64 { return c.Get(name) - before[name] }
			var answered atomic.Int64 // answer SENDs of the batch when the write failed
			answered.Store(-1)
			net := h.tt.Fabric().Network()
			net.SetFaultInjector(&severNth{n: k, fired: func() { answered.Store(delta("shuffle.rdma.answer.msgs")) }})
			defer net.SetFaultInjector(nil)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			h.fetchAllQueued(ctx)

			if got := answered.Load(); got != 0 {
				t.Errorf("%d answer SENDs went out before write %d of the batch, want 0: answers follow every payload", got, k)
			}
			// The send pump may already hold the next request, waiting for a
			// slot: it is re-issued with the batch.
			if got := delta("shuffle.rdma.retries"); got < depth || got > depth+1 {
				t.Errorf("%d requests re-issued, want the batch's %d (and the one the send pump held), each once", got, depth)
			}
			if got := delta("shuffle.rdma.packets"); got != maps {
				t.Errorf("%d chunks delivered, want each of %d partitions answered once", got, maps)
			}
			if got := delta("shuffle.rdma.reconnects"); got != 1 {
				t.Errorf("%d reconnects, want 1", got)
			}
			if got := delta("shuffle.fetch.failures"); got != 0 {
				t.Errorf("%d fetch failures sent maps to re-execution", got)
			}
			if got := c.Get("shuffle.rdma.stage.outstanding"); got != 0 {
				t.Errorf("stage.outstanding = %d after the fetch, want 0", got)
			}
		})
	}
}
