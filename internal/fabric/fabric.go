// Package fabric models the interconnects evaluated in the paper: 1GigE,
// 10GigE (with TCP offload), IP-over-InfiniBand (IPoIB) on QDR, and native
// InfiniBand QDR verbs (32 Gbps, OS-bypass RDMA).
//
// A Model carries the calibrated characteristics used by both planes:
// the performance simulator (internal/sim) turns them into DES service
// times, and the functional verbs emulation (internal/verbs) can inject
// them as real delays for latency-faithful demos.
//
// Calibration sources: QDR ConnectX payload bandwidth and verbs latency
// from the MVAPICH micro-benchmarks the authors' group publishes; IPoIB
// and socket CPU costs from the Balaji/Shah/Panda sockets-vs-RDMA study
// the paper cites ([17]).
package fabric

import (
	"fmt"
	"time"
)

// Kind enumerates the fabrics in the evaluation.
type Kind int

// Fabric kinds, in the order the paper's figure legends list them.
const (
	GigE1 Kind = iota // 1 Gigabit Ethernet
	TenGigE
	IPoIB   // IP-over-InfiniBand on QDR (32 Gbps), socket semantics
	IBVerbs // native InfiniBand QDR verbs with RDMA (OSU-IB, Hadoop-A)
)

// String returns the figure-legend name of the fabric.
func (k Kind) String() string {
	switch k {
	case GigE1:
		return "1GigE"
	case TenGigE:
		return "10GigE"
	case IPoIB:
		return "IPoIB (32Gbps)"
	case IBVerbs:
		return "IB Verbs (32Gbps)"
	default:
		return fmt.Sprintf("fabric.Kind(%d)", int(k))
	}
}

// Model is the calibrated characteristic set for one fabric.
type Model struct {
	Name string
	Kind Kind

	// BandwidthBps is effective payload bandwidth in bytes/second for a
	// single stream after protocol overheads.
	BandwidthBps float64

	// Latency is the one-way small-message latency.
	Latency time.Duration

	// PerPacketCPU is CPU time consumed on each side per packet/message
	// (interrupt handling, TCP stack traversal). RDMA verbs are
	// OS-bypassed: the cost is the descriptor post only.
	PerPacketCPU time.Duration

	// CopyBps is the host CPU copy bandwidth in bytes/second for the
	// socket data path (payloads cross the kernel, ~2 copies). RDMA
	// places data directly into registered buffers, so OS-bypassed
	// fabrics leave this zero (no copy cost).
	CopyBps float64

	// OSBypass reports whether transfers bypass the OS (verbs) or consume
	// host CPU (sockets). The simulator charges PerPacketCPU/PerByteCPU to
	// the node's CPU resource only when OSBypass is false.
	OSBypass bool

	// MaxPacket is the transport's natural transfer unit in bytes; the
	// shuffle engines chunk data into packets of at most this size.
	MaxPacket int

	// RDMACapable reports whether the shuffle engine may issue RDMA
	// read/write work requests on this fabric.
	RDMACapable bool
}

// Models returns the calibrated model for each fabric kind.
func Models(k Kind) Model {
	switch k {
	case GigE1:
		return Model{
			Name: k.String(), Kind: k,
			BandwidthBps: 117e6, // ~117 MB/s payload on 1 GbE
			Latency:      50 * time.Microsecond,
			PerPacketCPU: 8 * time.Microsecond,
			CopyBps:      1.4e9, // kernel copy path
			MaxPacket:    64 << 10,
		}
	case TenGigE:
		return Model{
			Name: k.String(), Kind: k,
			BandwidthBps: 1.15e9, // Chelsio T320 with TOE
			Latency:      18 * time.Microsecond,
			PerPacketCPU: 5 * time.Microsecond, // TOE offloads segmentation
			CopyBps:      2.8e9,
			MaxPacket:    64 << 10,
		}
	case IPoIB:
		return Model{
			Name: k.String(), Kind: k,
			BandwidthBps: 1.25e9, // IPoIB on QDR, socket path bound by host copies
			Latency:      16 * time.Microsecond,
			PerPacketCPU: 6 * time.Microsecond,
			CopyBps:      2.0e9,
			MaxPacket:    64 << 10,
		}
	case IBVerbs:
		return Model{
			Name: k.String(), Kind: k,
			BandwidthBps: 3.2e9, // QDR payload ~3.2 GB/s
			Latency:      2 * time.Microsecond,
			PerPacketCPU: 500 * time.Nanosecond, // WQE post + CQE poll
			CopyBps:      0,
			OSBypass:     true,
			MaxPacket:    1 << 20, // RDMA messages up to 1 MB in one WR
			RDMACapable:  true,
		}
	default:
		panic(fmt.Sprintf("fabric: unknown kind %d", int(k)))
	}
}

// TransferTime returns the wire time for a payload of size bytes sent as a
// single logical message: latency plus serialization, ignoring congestion
// (congestion is the simulator's job via shared links).
func (m Model) TransferTime(size int) time.Duration {
	if size < 0 {
		panic("fabric: negative transfer size")
	}
	ser := time.Duration(float64(size) / m.BandwidthBps * float64(time.Second))
	return m.Latency + ser
}

// HostCPUTime returns the host CPU consumed on one side to move a payload
// of size bytes as packets of the model's MaxPacket size. OS-bypassed
// fabrics pay only the per-work-request cost.
func (m Model) HostCPUTime(size int) time.Duration {
	if size < 0 {
		panic("fabric: negative transfer size")
	}
	packets := (size + m.MaxPacket - 1) / m.MaxPacket
	if packets == 0 {
		packets = 1
	}
	cpu := time.Duration(packets) * m.PerPacketCPU
	if !m.OSBypass && m.CopyBps > 0 {
		cpu += time.Duration(float64(size) / m.CopyBps * float64(time.Second))
	}
	return cpu
}
