package des

import "fmt"

// Server is a FIFO multi-server queue: up to Capacity jobs are in service
// concurrently, each for its own fixed service time; excess jobs wait in
// arrival order. It models CPU task slots (4 map + 4 reduce per
// TaskTracker, per the paper's §IV tuning) and any other slot-limited
// resource.
type Server struct {
	sim      *Sim
	capacity int
	busy     int
	queue    []serverJob
}

type serverJob struct {
	service float64
	onDone  func()
}

// NewServer returns a FIFO server with the given concurrency.
func NewServer(sim *Sim, capacity int) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: server capacity %d", capacity))
	}
	return &Server{sim: sim, capacity: capacity}
}

// Submit enqueues a job needing service seconds of exclusive slot time and
// calls onDone when it completes.
func (sv *Server) Submit(service float64, onDone func()) {
	if service < 0 {
		panic(fmt.Sprintf("des: negative service time %g", service))
	}
	if sv.busy < sv.capacity {
		sv.start(serverJob{service, onDone})
		return
	}
	sv.queue = append(sv.queue, serverJob{service, onDone})
}

func (sv *Server) start(j serverJob) {
	sv.busy++
	sv.sim.After(j.service, func() {
		sv.busy--
		if len(sv.queue) > 0 {
			next := sv.queue[0]
			sv.queue = sv.queue[1:]
			sv.start(next)
		}
		j.onDone()
	})
}

// PenaltyFunc maps the number of concurrent flows on a FairLink to an
// efficiency factor in (0, 1]. It models how aggregate device throughput
// degrades under concurrency — e.g. HDD seek thrash when shuffle reads
// interleave with spill writes, the effect the paper attacks with multiple
// disks and the PrefetchCache.
type PenaltyFunc func(flows int) float64

// NoPenalty keeps full aggregate bandwidth at any concurrency (SSDs, NICs).
func NoPenalty(int) float64 { return 1 }

// FloorPenalty charges each additional concurrent stream fraction alpha
// of aggregate throughput, efficiency = 1/(1+alpha*(n-1)), with a lower
// bound: efficiency degrades with concurrency but saturates at floor,
// matching measured devices
// (interleaved large-block streams on an HDD settle near 50-70% of
// sequential throughput, they do not collapse to zero).
func FloorPenalty(alpha, floor float64) PenaltyFunc {
	return func(n int) float64 {
		if n <= 1 {
			return 1
		}
		eff := 1 / (1 + alpha*float64(n-1))
		if eff < floor {
			return floor
		}
		return eff
	}
}

// FairLink is a fluid-flow, processor-sharing bandwidth resource: active
// flows share capacity (bytes/second) equally, rescaled by a concurrency
// penalty. It models NIC ports, switch uplinks, and disk bandwidth.
type FairLink struct {
	sim      *Sim
	capacity float64 // bytes per second at concurrency 1
	penalty  PenaltyFunc
	flows    map[*flow]struct{}
	lastUpd  float64
	// epoch invalidates the scheduled completion event when flow set
	// changes; the stale event becomes a no-op.
	epoch uint64
	// moved accumulates total bytes transferred for reporting.
	moved float64
}

type flow struct {
	remaining float64
	onDone    func()
}

// NewFairLink returns a fair-shared link with the given aggregate capacity
// in bytes/second. penalty may be nil for NoPenalty.
func NewFairLink(sim *Sim, capacity float64, penalty PenaltyFunc) *FairLink {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: link capacity %g", capacity))
	}
	if penalty == nil {
		penalty = NoPenalty
	}
	return &FairLink{sim: sim, capacity: capacity, penalty: penalty, flows: make(map[*flow]struct{})}
}

// Transfer starts a flow of the given size in bytes and calls onDone when
// the last byte has been delivered. Zero-sized transfers complete on the
// next event cycle.
func (l *FairLink) Transfer(bytes float64, onDone func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("des: negative transfer %g", bytes))
	}
	l.advance()
	f := &flow{remaining: bytes, onDone: onDone}
	l.flows[f] = struct{}{}
	l.reschedule()
}

// advance drains progress since lastUpd at the current rate.
func (l *FairLink) advance() {
	now := l.sim.Now()
	dt := now - l.lastUpd
	l.lastUpd = now
	n := len(l.flows)
	if dt <= 0 || n == 0 {
		return
	}
	perFlow := l.capacity * l.penalty(n) / float64(n) * dt
	for f := range l.flows {
		f.remaining -= perFlow
		l.moved += perFlow
		if f.remaining < 1e-6 {
			f.remaining = 0
		}
	}
}

// reschedule computes the next completion among active flows, completing
// any that already hit zero, then schedules one wake-up event.
func (l *FairLink) reschedule() {
	// Complete all finished flows now (deterministic order not required:
	// completions at the same instant are independent).
	var done []*flow
	for f := range l.flows {
		if f.remaining <= 1e-6 {
			done = append(done, f)
		}
	}
	for _, f := range done {
		delete(l.flows, f)
	}
	l.epoch++
	if len(l.flows) > 0 {
		minRem := -1.0
		for f := range l.flows {
			if minRem < 0 || f.remaining < minRem {
				minRem = f.remaining
			}
		}
		n := len(l.flows)
		rate := l.capacity * l.penalty(n) / float64(n)
		eta := minRem / rate
		// Clamp below so float cancellation can never schedule a wake-up
		// that fails to advance the clock (livelock).
		if eta < 1e-9 {
			eta = 1e-9
		}
		epoch := l.epoch
		l.sim.After(eta, func() {
			if epoch != l.epoch {
				return // superseded by a later arrival/completion
			}
			l.advance()
			l.reschedule()
		})
	}
	for _, f := range done {
		f.onDone()
	}
}

// Gate is a counting semaphore for multi-stage DES processes: task slots
// (4 map + 4 reduce per TaskTracker) gate admission while the admitted
// process runs several resource stages before releasing. Waiters are
// served FIFO.
type Gate struct {
	sim      *Sim
	capacity int
	inUse    int
	waiters  []func(release func())
}

// NewGate returns a semaphore with the given capacity.
func NewGate(sim *Sim, capacity int) *Gate {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: gate capacity %d", capacity))
	}
	return &Gate{sim: sim, capacity: capacity}
}

// Acquire runs fn (at the current virtual time or when a slot frees)
// with a release callback that must be called exactly once when the
// process completes.
func (g *Gate) Acquire(fn func(release func())) {
	if g.inUse < g.capacity {
		g.inUse++
		fn(g.releaseFunc())
		return
	}
	g.waiters = append(g.waiters, fn)
}

func (g *Gate) releaseFunc() func() {
	released := false
	return func() {
		if released {
			panic("des: gate released twice")
		}
		released = true
		if len(g.waiters) > 0 {
			next := g.waiters[0]
			g.waiters = g.waiters[1:]
			// Hand the slot over at the current instant.
			g.sim.After(0, func() { next(g.releaseFunc()) })
			return
		}
		g.inUse--
	}
}

// Barrier calls done after count completions have been signalled. It is
// the DES equivalent of a WaitGroup for fan-out stages (e.g. a transfer
// charged to both end-point NICs completes when the slower leg does).
type Barrier struct {
	remaining int
	done      func()
}

// NewBarrier returns a barrier expecting count signals. count 0 fires
// immediately.
func NewBarrier(sim *Sim, count int, done func()) *Barrier {
	b := &Barrier{remaining: count, done: done}
	if count == 0 {
		sim.After(0, done)
	}
	return b
}

// Signal records one completion, firing done on the last.
func (b *Barrier) Signal() {
	if b.remaining <= 0 {
		panic("des: barrier over-signalled")
	}
	b.remaining--
	if b.remaining == 0 {
		b.done()
	}
}
