// Package storage provides the two storage pieces rdmamr needs: calibrated
// device models (HDD, dual-HDD JBOD, SSD) consumed by the performance
// simulator, and a concurrency-safe local object store used by the
// functional plane (DataNode block storage and TaskTracker map-output
// files).
package storage

import "fmt"

// DeviceKind enumerates the storage configurations in the evaluation
// (§IV-A: one 160 GB HDD per compute node, two 1 TB HDDs on storage
// nodes, SSD for Figures 7–8).
type DeviceKind int

// Storage configurations, as named in the figure legends.
const (
	HDD1 DeviceKind = iota // single HDD
	HDD2                   // two HDDs, JBOD
	SSD
)

// String returns the legend suffix for the device ("1disk", "2disks",
// "ssd").
func (k DeviceKind) String() string {
	switch k {
	case HDD1:
		return "1disk"
	case HDD2:
		return "2disks"
	case SSD:
		return "ssd"
	default:
		return fmt.Sprintf("storage.DeviceKind(%d)", int(k))
	}
}

// Model is the calibrated characteristic set of one node's local storage.
type Model struct {
	Name string
	Kind DeviceKind

	// ReadBps / WriteBps are aggregate sequential throughputs in
	// bytes/second across all spindles/channels.
	ReadBps  float64
	WriteBps float64

	// SeekAlpha parameterizes the concurrency penalty: with n concurrent
	// streams the aggregate drops to 1/(1+alpha*(n-1)). Spinning disks pay
	// heavily for interleaving (shuffle reads against spill writes — the
	// contention the PrefetchCache removes); flash pays almost nothing.
	SeekAlpha float64

	// MinEfficiency floors the concurrency penalty: interleaved streams
	// never push aggregate throughput below this fraction of sequential.
	MinEfficiency float64

	// RequestLatency is the fixed per-request service latency in seconds
	// (rotational + controller for HDD, channel for SSD).
	RequestLatency float64

	// Spindles is the number of independent devices (JBOD width).
	Spindles int
}

// Device returns the calibrated model for a storage configuration.
// 2007-era 7200rpm SATA sustains ~100 MB/s; dual-disk JBOD gives ~1.9x
// aggregate; a SATA-2 era SSD sustains ~260/210 MB/s with negligible seek
// cost.
func Device(k DeviceKind) Model {
	switch k {
	case HDD1:
		return Model{
			Name: k.String(), Kind: k,
			ReadBps: 100e6, WriteBps: 90e6,
			SeekAlpha:      0.35,
			MinEfficiency:  0.40,
			RequestLatency: 8e-3,
			Spindles:       1,
		}
	case HDD2:
		return Model{
			Name: k.String(), Kind: k,
			ReadBps: 190e6, WriteBps: 170e6,
			// Two spindles let reads and writes land on different disks,
			// roughly halving interleave cost.
			SeekAlpha:      0.18,
			MinEfficiency:  0.60,
			RequestLatency: 8e-3,
			Spindles:       2,
		}
	case SSD:
		return Model{
			Name: k.String(), Kind: k,
			ReadBps: 260e6, WriteBps: 210e6,
			SeekAlpha:      0.01,
			MinEfficiency:  0.95,
			RequestLatency: 120e-6,
			Spindles:       1,
		}
	default:
		panic(fmt.Sprintf("storage: unknown device kind %d", int(k)))
	}
}

// ReadTime returns the uncontended time in seconds to read size bytes.
func (m Model) ReadTime(size int64) float64 {
	if size < 0 {
		panic("storage: negative read size")
	}
	return m.RequestLatency + float64(size)/m.ReadBps
}

// WriteTime returns the uncontended time in seconds to write size bytes.
func (m Model) WriteTime(size int64) float64 {
	if size < 0 {
		panic("storage: negative write size")
	}
	return m.RequestLatency + float64(size)/m.WriteBps
}
