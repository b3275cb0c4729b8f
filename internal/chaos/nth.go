package chaos

import (
	"sync"

	"rdmamr/internal/verbs"
)

// NthOp is the scripted counterpart of Injector, for a test that needs
// one fault at one exact place: the nth work request of one opcode that
// carries bytes is either dropped (the sender sees WCRetryExceeded) or
// parked inside its verdict — the bytes it carries stay in the fabric —
// until the test calls Release. Everything else passes untouched.
type NthOp struct {
	op      verbs.Opcode
	n       int
	reached chan struct{} // closed when the nth request arrives
	release chan struct{} // nil: drop instead of parking

	mu   sync.Mutex
	seen int
}

// DropNth drops the nth byte-carrying work request with opcode op.
func DropNth(op verbs.Opcode, n int) *NthOp {
	return &NthOp{op: op, n: n, reached: make(chan struct{})}
}

// ParkNth holds the nth byte-carrying work request with opcode op until
// Release.
func ParkNth(op verbs.Opcode, n int) *NthOp {
	g := DropNth(op, n)
	g.release = make(chan struct{})
	return g
}

// Reached is closed once the nth request has arrived (and, for ParkNth,
// is being held).
func (g *NthOp) Reached() <-chan struct{} { return g.reached }

// Release lets a parked request go. Call it once, before closing whatever
// owns the QP the request sits on.
func (g *NthOp) Release() { close(g.release) }

// SendVerdict implements verbs.FaultInjector.
func (g *NthOp) SendVerdict(_, _ string, op verbs.Opcode, bytes int) verbs.FaultVerdict {
	if op != g.op || bytes == 0 {
		return verbs.FaultVerdict{}
	}
	g.mu.Lock()
	g.seen++
	hit := g.seen == g.n
	g.mu.Unlock()
	if !hit {
		return verbs.FaultVerdict{}
	}
	close(g.reached)
	if g.release == nil {
		return verbs.FaultVerdict{Action: verbs.FaultDropSend}
	}
	<-g.release
	return verbs.FaultVerdict{}
}

// DialRefused implements verbs.FaultInjector: dials are never refused.
func (g *NthOp) DialRefused(_, _ string) bool { return false }
