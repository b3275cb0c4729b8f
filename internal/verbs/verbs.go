// Package verbs emulates the InfiniBand verbs interface (the paper's
// §II-B.1(a) access layer) in pure Go: devices (HCAs), registered memory
// regions with lkey/rkey protection, queue pairs with the
// RESET→INIT→RTR→RTS state machine, completion queues, and the SEND/RECV
// and RDMA READ/WRITE opcodes.
//
// Substitution note (DESIGN.md): no InfiniBand hardware is available in
// this environment, so devices attach to an in-process Network that copies
// payloads directly between registered buffers — the same zero-copy,
// OS-bypass data movement an HCA performs; delay, loss and severed
// connections come only from an installed FaultInjector. Everything above
// this layer (UCR, the RDMA shuffle engine) is agnostic to whether
// completions come from the emulator or a real HCA.
package verbs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by verbs operations (posting errors; data-path failures
// surface as work-completion statuses instead, as on real hardware).
var (
	ErrQPState      = errors.New("verbs: queue pair not in required state")
	ErrUnknownDev   = errors.New("verbs: unknown device")
	ErrBadSGE       = errors.New("verbs: scatter/gather entry out of region bounds")
	ErrDeregistered = errors.New("verbs: memory region deregistered")
	ErrClosed       = errors.New("verbs: object closed")
	// ErrDialRefused is what a connection manager (ucr) returns when
	// Network.DialRefused rules against a dial — the emulator's stand-in
	// for RDMA-CM REJECT / an unreachable CM listener.
	ErrDialRefused = errors.New("verbs: dial refused")
)

// Opcode identifies a send-queue work request type.
type Opcode int

// Work request opcodes (the subset the shuffle designs need).
const (
	OpSend Opcode = iota
	OpRDMAWrite
	OpRDMARead
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMARead:
		return "RDMA_READ"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// WCStatus is a work completion status.
type WCStatus int

// Completion statuses.
const (
	WCSuccess WCStatus = iota
	WCRemoteAccessErr
	WCRNRRetryExceeded // receiver not ready: SEND with no posted RECV
	WCLocalProtErr
	WCFlushErr      // QP destroyed with work outstanding
	WCRetryExceeded // transport retry counter exceeded: peer unreachable or packets lost
)

func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "SUCCESS"
	case WCRemoteAccessErr:
		return "REMOTE_ACCESS_ERR"
	case WCRNRRetryExceeded:
		return "RNR_RETRY_EXCEEDED"
	case WCLocalProtErr:
		return "LOCAL_PROT_ERR"
	case WCFlushErr:
		return "WR_FLUSH_ERR"
	case WCRetryExceeded:
		return "RETRY_EXC_ERR"
	default:
		return fmt.Sprintf("WCStatus(%d)", int(s))
	}
}

// WC is a work completion, delivered to a CQ when a work request finishes.
type WC struct {
	WRID    uint64
	Status  WCStatus
	Opcode  Opcode
	ByteLen int    // bytes transferred (valid on success)
	QPN     uint32 // local QP number
	Imm     uint32 // immediate data (SEND only)
}

// FaultAction is a fault injector's ruling on one work request or dial.
type FaultAction int

// Fault actions, ordered roughly by severity.
const (
	// FaultNone lets the operation proceed untouched.
	FaultNone FaultAction = iota
	// FaultDelay stalls the posting goroutine for the verdict's Delay
	// before executing normally — a congested or flapping link.
	FaultDelay
	// FaultDropSend discards the work request without delivering
	// anything; the sender completes with WCRetryExceeded, as a reliable
	// transport reports after exhausting its retry counter.
	FaultDropSend
	// FaultFailCompletion delivers the operation normally but lies to
	// the sender with a WCRetryExceeded completion — the
	// duplicate-delivery hazard that makes idempotent re-requests
	// mandatory (the data arrived; the requester believes it did not).
	FaultFailCompletion
	// FaultSeverQP transitions both queue pairs of the connection into
	// the Error state mid-flight: posted receives flush with WCFlushErr,
	// the triggering work request completes with WCFlushErr, and every
	// subsequent post on either side fails.
	FaultSeverQP
)

// FaultVerdict is the injector's decision for one operation.
type FaultVerdict struct {
	Action FaultAction
	// Delay applies when Action is FaultDelay.
	Delay time.Duration
}

// FaultInjector decides the fate of fabric operations. Implementations
// must be safe for concurrent use; they are consulted from every
// goroutine that posts a send-queue work request, inside PostSend.
// Install with Network.SetFaultInjector.
type FaultInjector interface {
	// SendVerdict rules on one send-queue work request from localDev to
	// remoteDev before it executes.
	SendVerdict(localDev, remoteDev string, op Opcode, bytes int) FaultVerdict
	// DialRefused reports whether a connection attempt from localDev to
	// remoteDev should be rejected. Connection managers consult this via
	// Network.DialRefused once per logical dial, on the DIALING side only
	// — the accept side's reverse QP transition is part of the same dial
	// and must not roll again (it would invert the refusal's direction).
	DialRefused(localDev, remoteDev string) bool
}

// Network is the in-process fabric connecting emulated devices. Its
// mutex guards only the device map, which a dial reads once: a post runs
// on the peer device its queue pair resolved at Connect and reads the
// installed fault injector with one atomic load.
type Network struct {
	mu      sync.RWMutex
	devices map[string]*Device

	// faults and wcObs are atomic so the per-post and per-completion
	// loads cost one pointer read (nil, the common case) instead of a
	// lock.
	faults atomic.Pointer[FaultInjector]
	wcObs  atomic.Pointer[WCObserver]
}

// WCObserver is notified of every work completion generated on the
// network — send side and receive side, success or failure — before it
// is delivered to its CQ. Implementations must be safe for concurrent
// use from every posting goroutine, which runs them inside PostSend, and
// must not block: a slow observer stalls the poster exactly like a full
// CQ.
type WCObserver func(dev string, wc WC)

// SetCompletionObserver installs (or, with nil, removes) the network's
// completion observer. Observability layers hang counters here; the
// data path itself never depends on it.
func (n *Network) SetCompletionObserver(fn WCObserver) {
	if fn == nil {
		n.wcObs.Store(nil)
		return
	}
	n.wcObs.Store(&fn)
}

func (n *Network) observeWC(dev string, wc WC) {
	if p := n.wcObs.Load(); p != nil {
		(*p)(dev, wc)
	}
}

// NewNetwork returns an empty network with no fault injector.
func NewNetwork() *Network {
	return &Network{devices: make(map[string]*Device)}
}

// SetFaultInjector installs (or, with nil, removes) a fault injector
// consulted on every send-queue work request and dial. A post reads it
// once, so a swap takes effect from the next post on.
func (n *Network) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		n.faults.Store(nil)
		return
	}
	n.faults.Store(&fi)
}

func (n *Network) faultInjector() FaultInjector {
	if p := n.faults.Load(); p != nil {
		return *p
	}
	return nil
}

// DialRefused reports whether the installed fault injector rejects a
// connection attempt from localDev to remoteDev — the emulator's
// RDMA-CM REJECT. Connection managers (ucr) call this once per logical
// dial, from the dialing side, before any QP transitions; raw
// QueuePair.Connect does not consult the injector (both ends of a dial
// perform one, and the accept side's would invert the direction).
func (n *Network) DialRefused(localDev, remoteDev string) bool {
	fi := n.faultInjector()
	return fi != nil && fi.DialRefused(localDev, remoteDev)
}

// NewDevice creates and attaches a device (HCA) with the given unique name.
func (n *Network) NewDevice(name string) (*Device, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.devices[name]; ok {
		return nil, fmt.Errorf("verbs: device %q already exists", name)
	}
	d := &Device{
		net:  n,
		name: name,
		mrs:  make(map[uint32]*MemoryRegion),
		qps:  make(map[uint32]*QueuePair),
	}
	n.devices[name] = d
	return d, nil
}

func (n *Network) lookup(name string) (*Device, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDev, name)
	}
	return d, nil
}

// Device is an emulated host channel adapter.
type Device struct {
	net  *Network
	name string

	mu      sync.Mutex
	mrs     map[uint32]*MemoryRegion
	mws     map[uint32]*MemoryWindow
	nextKey uint32
	nextVA  uint64
	qps     map[uint32]*QueuePair
	nextQPN uint32
	closed  bool
	vals    []struct{ key, v any } // Value's, in order of creation
}

// Value returns the value the layers above keep on the device under key,
// made by mk on first use (mk must not use the device). The device owns
// it: Close closes it, if it has a Close method, after every value made
// later and before the device's queue pairs, so the state a layer keeps
// per node lives and dies with the node's device.
func (d *Device) Value(key any, mk func() any) any {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, kv := range d.vals {
		if kv.key == key {
			return kv.v
		}
	}
	v := mk()
	d.vals = append(d.vals, struct{ key, v any }{key, v})
	return v
}

// Name returns the device name (its network address).
func (d *Device) Name() string { return d.name }

// MemoryRegion is a registered buffer. RDMA operations address it by
// (rkey, virtual address); local SGEs address it by lkey.
type MemoryRegion struct {
	dev   *Device
	buf   []byte
	lkey  uint32
	rkey  uint32
	va    uint64 // emulated virtual base address
	dead  bool
	devMu *sync.Mutex // guards dead + buf access across RDMA ops
}

// RegisterMemory registers buf and returns the region. The emulated
// virtual address space is per-device and never reuses ranges, so stale
// addresses fail rather than corrupt.
func (d *Device) RegisterMemory(buf []byte) (*MemoryRegion, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	d.nextKey++
	// Leave a guard gap between regions so off-by-one addressing faults.
	va := d.nextVA + 4096
	d.nextVA = va + uint64(len(buf)) + 4096
	mr := &MemoryRegion{
		dev:   d,
		buf:   buf,
		lkey:  d.nextKey,
		rkey:  d.nextKey | 0x80000000,
		va:    va,
		devMu: &d.mu,
	}
	d.mrs[mr.rkey] = mr
	return mr, nil
}

// Deregister invalidates the region; subsequent RDMA against it fails with
// a remote access error.
func (mr *MemoryRegion) Deregister() error {
	mr.devMu.Lock()
	defer mr.devMu.Unlock()
	if mr.dead {
		return ErrDeregistered
	}
	mr.dead = true
	delete(mr.dev.mrs, mr.rkey)
	return nil
}

// Dead reports whether the region has been deregistered. Cache pinning
// tests use it to assert that deregistration is deferred while responses
// are in flight.
func (mr *MemoryRegion) Dead() bool {
	mr.devMu.Lock()
	defer mr.devMu.Unlock()
	return mr.dead
}

// RKey returns the remote protection key to hand to peers.
func (mr *MemoryRegion) RKey() uint32 { return mr.rkey }

// Addr returns the emulated virtual base address to hand to peers.
func (mr *MemoryRegion) Addr() uint64 { return mr.va }

// Len returns the registered length.
func (mr *MemoryRegion) Len() int { return len(mr.buf) }

// Bytes exposes the underlying buffer for local access (the application
// owns the memory, as with real verbs).
func (mr *MemoryRegion) Bytes() []byte { return mr.buf }

// resolve maps (rkey, va, length) to a subslice, enforcing protection.
// The rkey may name a full region or a bound memory window; windows
// additionally enforce their own bounds and liveness (an invalidated
// window faults even though the parent slab stays registered). Caller
// must hold the device mutex.
func (d *Device) resolve(rkey uint32, va uint64, length int) ([]byte, bool) {
	if length < 0 {
		return nil, false
	}
	if mr, ok := d.mrs[rkey]; ok && !mr.dead {
		if va < mr.va {
			return nil, false
		}
		off := va - mr.va
		if off+uint64(length) > uint64(len(mr.buf)) {
			return nil, false
		}
		return mr.buf[off : off+uint64(length)], true
	}
	if mw, ok := d.mws[rkey]; ok && !mw.dead && !mw.mr.dead {
		if va < mw.va {
			return nil, false
		}
		off := va - mw.va
		if off+uint64(length) > uint64(mw.length) {
			return nil, false
		}
		base := uint64(mw.off) + off
		return mw.mr.buf[base : base+uint64(length)], true
	}
	return nil, false
}
