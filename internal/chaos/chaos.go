// Package chaos is a deterministic, seedable fault injector for the
// emulated fabric. It implements verbs.FaultInjector with per-operation
// probabilities drawn from a seeded PRNG, so a chaos run is exactly
// reproducible: same seed, same faults, same order (per QP: posts on
// one QP execute one at a time, in post order).
//
// Two modes compose:
//
//   - Probabilistic faults (Config): every send-queue work request rolls
//     against drop/fail/delay/sever probabilities; dials roll against a
//     refusal probability. MaxFaults caps the total number of injected
//     faults so a run is guaranteed to eventually quiesce.
//   - Targeted kills (KillPeer/RevivePeer): every dial toward a killed
//     device is refused at the CM layer, modeling a tracker whose serving
//     side is dead while the host's own reduce tasks keep working — their
//     outbound dials, and the response traffic flowing back to them over
//     connections THEY dialed, are untouched. Connections established
//     before the kill keep draining; compose with SeverProb (or a
//     scripted sever) to cut those mid-flight.
//
// The injector sits below the fabric latency model — a surviving
// operation still pays modeled latency — and above UCR, so reconnect
// logic in the copier sees exactly the completion statuses real
// transport faults produce.
package chaos

import (
	"math/rand"
	"sync"
	"time"

	"rdmamr/internal/verbs"
)

// Config sets per-operation fault probabilities, all in [0, 1]. The
// probabilities are evaluated in order drop → fail-completion → sever →
// delay; at most one fault fires per operation.
type Config struct {
	Seed int64
	// DropSendProb discards the work request; the sender completes with
	// WCRetryExceeded and nothing is delivered.
	DropSendProb float64
	// FailCompProb delivers the operation but fails the sender's
	// completion — the duplicate-delivery hazard.
	FailCompProb float64
	// SeverProb transitions both QPs of the connection into Error state.
	SeverProb float64
	// DelayProb stalls the posting goroutine for Delay before proceeding.
	DelayProb float64
	Delay     time.Duration
	// RefuseDialProb rejects QueuePair.Connect attempts.
	RefuseDialProb float64
	// MaxFaults, when > 0, caps the total number of injected faults
	// (drops + fails + severs + refusals; delays don't count). After the
	// cap the fabric behaves perfectly, guaranteeing forward progress.
	MaxFaults int64
}

// Injector is a seeded probabilistic verbs.FaultInjector. Safe for
// concurrent use from every goroutine that posts a work request.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	conf   Config
	killed map[string]bool
	faults int64
	// per-action counters, for assertions and run reports
	drops    int64
	fails    int64
	severs   int64
	delays   int64
	refusals int64
}

// New returns an injector with the given configuration. A zero Config
// injects nothing until KillPeer is used.
func New(conf Config) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(conf.Seed)),
		conf:   conf,
		killed: make(map[string]bool),
	}
}

// KillPeer refuses every subsequent dial toward the named device — the
// serving side of that host is dead while its own outbound fetches keep
// working (a crashed tracker listener, not a powered-off machine).
// Traffic on connections that already exist is not touched; use sever
// faults to cut those.
func (in *Injector) KillPeer(dev string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.killed[dev] = true
}

// RevivePeer undoes KillPeer; subsequent dials to the device succeed
// (tracker restart).
func (in *Injector) RevivePeer(dev string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.killed, dev)
}

// Faults returns the total number of injected faults so far (excluding
// delays and targeted kills).
func (in *Injector) Faults() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}

// Stats returns per-action injection counts: drops, failed completions,
// severs, delays, dial refusals.
func (in *Injector) Stats() (drops, fails, severs, delays, refusals int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drops, in.fails, in.severs, in.delays, in.refusals
}

// SendVerdict implements verbs.FaultInjector. Targeted kills do not
// appear here: in-flight traffic cannot tell which end of a connection
// dialed, so severing sends toward a killed device would also cut the
// responses owed to that host's healthy reduce tasks.
func (in *Injector) SendVerdict(_, _ string, _ verbs.Opcode, _ int) verbs.FaultVerdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.conf.MaxFaults > 0 && in.faults >= in.conf.MaxFaults {
		return verbs.FaultVerdict{}
	}
	roll := in.rng.Float64()
	switch {
	case roll < in.conf.DropSendProb:
		in.faults++
		in.drops++
		return verbs.FaultVerdict{Action: verbs.FaultDropSend}
	case roll < in.conf.DropSendProb+in.conf.FailCompProb:
		in.faults++
		in.fails++
		return verbs.FaultVerdict{Action: verbs.FaultFailCompletion}
	case roll < in.conf.DropSendProb+in.conf.FailCompProb+in.conf.SeverProb:
		in.faults++
		in.severs++
		return verbs.FaultVerdict{Action: verbs.FaultSeverQP}
	case roll < in.conf.DropSendProb+in.conf.FailCompProb+in.conf.SeverProb+in.conf.DelayProb:
		in.delays++
		return verbs.FaultVerdict{Action: verbs.FaultDelay, Delay: in.conf.Delay}
	}
	return verbs.FaultVerdict{}
}

// DialRefused implements verbs.FaultInjector.
func (in *Injector) DialRefused(_, remoteDev string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.killed[remoteDev] {
		in.refusals++
		return true
	}
	if in.conf.RefuseDialProb <= 0 {
		return false
	}
	if in.conf.MaxFaults > 0 && in.faults >= in.conf.MaxFaults {
		return false
	}
	if in.rng.Float64() < in.conf.RefuseDialProb {
		in.faults++
		in.refusals++
		return true
	}
	return false
}
