package core

import (
	"errors"
	"sync"
	"time"

	"rdmamr/internal/obs"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// Error sentinels for the copier's transient/fatal classifier.
var (
	// errRequestDeadline marks a DataRequest whose response did not
	// arrive within mapred.rdma.request.timeout: the peer is silent, the
	// connection is torn down, and the request re-issues through the
	// retry budget.
	errRequestDeadline = errors.New("core: request deadline exceeded")
	// errProtocol marks an undecodable or inconsistent response frame.
	// The connection's slot bookkeeping is unrecoverable, but a fresh
	// connection re-issues the in-flight requests idempotently, so it is
	// retried like a transport fault.
	errProtocol = errors.New("core: shuffle protocol violation")
)

// transientErr classifies a fetch failure: true means the same request
// may succeed against a fresh connection (fabric fault, peer restart,
// deadline, garbled frame), false means retrying cannot help and the
// segment must escalate to map re-execution.
func transientErr(err error) bool {
	return errors.Is(err, verbs.ErrDialRefused) ||
		errors.Is(err, ucr.ErrTransport) ||
		errors.Is(err, ucr.ErrClosed) ||
		errors.Is(err, ucr.ErrNoService) ||
		errors.Is(err, errRequestDeadline) ||
		errors.Is(err, errProtocol)
}

// Blacklist policy: after blacklistAfter consecutive failures the host
// is embargoed for a penalty that doubles per trip (capped) and halves
// per subsequent success — a decaying memory of flakiness.
const (
	blacklistAfter = 3
	blacklistBase  = 50 * time.Millisecond
	blacklistMax   = 8 * blacklistBase
)

// peerHealth scores one remote host. All methods are safe for concurrent
// use from many fetchers.
type peerHealth struct {
	mu          sync.Mutex
	consecFails int
	penalty     time.Duration
	blackUntil  time.Time
	// lastFailGen / lastOKGen dedupe health events by shared-connection
	// incarnation (D13): when one endpoint sever unwinds every fetcher
	// leasing it, only the first report per generation scores — one dead
	// connection is one failure, not one per sharer.
	lastFailGen uint64
	lastOKGen   uint64
	// now is the clock; nil means time.Now. Tests inject a fake so the
	// decay and embargo arithmetic is checked without sleeping.
	now func() time.Time
}

func (ph *peerHealth) clock() time.Time {
	if ph.now != nil {
		return ph.now()
	}
	return time.Now()
}

// recordFailureGen notes a connection-level failure and returns the new
// consecutive-failure count. Crossing the blacklist threshold embargoes
// the host and bumps the shuffle.rdma.blacklist.trips counter. It is
// deduplicated by shared-connection generation: the first fetcher to
// report a given incarnation's death scores it, later sharers are no-ops
// (gen 0 = not shared, always scores). Without this, one severed endpoint
// would multiply blacklist penalties by the number of fetchers leasing it.
func (ph *peerHealth) recordFailureGen(gen uint64, c *obs.Registry) int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if gen != 0 {
		if gen <= ph.lastFailGen {
			return ph.consecFails
		}
		ph.lastFailGen = gen
	}
	ph.consecFails++
	if ph.consecFails >= blacklistAfter {
		if ph.penalty < blacklistBase {
			ph.penalty = blacklistBase
		} else if ph.penalty < blacklistMax {
			ph.penalty *= 2
		}
		ph.blackUntil = ph.clock().Add(ph.penalty)
		c.Counter("shuffle.rdma.blacklist.trips").Add(1)
	}
	return ph.consecFails
}

// recordSuccessGen clears the consecutive-failure streak and decays the
// accumulated penalty, deduplicated by shared-connection generation like
// recordFailureGen: one working incarnation decays the penalty once, not
// once per fetcher sharing it.
func (ph *peerHealth) recordSuccessGen(gen uint64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if gen != 0 {
		if gen <= ph.lastOKGen {
			return
		}
		ph.lastOKGen = gen
	}
	ph.consecFails = 0
	ph.penalty /= 2
}

// admissionDelay returns how long a fetcher should wait before dialing
// this host (zero when not blacklisted).
func (ph *peerHealth) admissionDelay() time.Duration {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if d := ph.blackUntil.Sub(ph.clock()); d > 0 {
		return d
	}
	return 0
}
