package mapred

import (
	"fmt"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/obs"
	"rdmamr/internal/stats"
	"rdmamr/internal/storage"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// TaskTracker is one slave node's task runtime: it owns the node's local
// disk (shared with its DataNode, as on a real slave), its HCA device,
// and its map/reduce slots. Shuffle engines are handed TaskTrackers on
// both the serving side (map outputs live in Store) and the reduce side
// (the local endpoint for fetching).
type TaskTracker struct {
	host     string
	store    *storage.LocalStore
	fab      *ucr.Fabric
	dev      *verbs.Device
	conf     *config.Config
	counters *stats.Counters
	// jobObs is the cluster's per-job profile/trace registry: task code
	// asks for the profile of the job it is running (keyed by jobID), so
	// concurrent jobs never see each other's instrumentation. A nil
	// registry, or a job with neither plane enabled, yields nils — the
	// disabled-observability fast path at every call site.
	jobObs *jobObsRegistry
	// nodeReg is this node's OWN registry (node.* namespace), distinct
	// from the cluster-wide one behind counters. Its counters are what
	// the DeltaShipper diffs and ships on the heartbeat path. Nil when
	// telemetry is off.
	nodeReg *obs.Registry
	// shipper turns nodeReg into per-heartbeat deltas for the
	// scheduler's ClusterView. Nil when telemetry is off.
	shipper *obs.DeltaShipper
	// events is the cluster's shared structured event log (servers
	// append lease-expiry events through it). Nil when telemetry is off.
	events *obs.EventLog
	// Pre-resolved nodeReg handles for the tracker's own hot paths
	// (nil handles when telemetry is off — free no-ops).
	nDiskReads   *obs.Counter
	nMapoutBytes *obs.Counter
	// cDiskReads is the cluster counter tracker.mapoutput.disk.reads,
	// resolved on first use so that MapOutput looks no name up.
	cDiskReads atomic.Pointer[obs.Counter]
	// runAlloc is the shuffle engine's RunAllocator, nil when it has none.
	runAlloc atomic.Pointer[RunAllocator]
}

// RunAllocator places one final map output run of n bytes, to be stored
// under name, in memory a shuffle engine owns: it returns a buffer of
// exactly n bytes and the owner the store releases it through. An error
// (the engine's registered-memory budget, say) leaves the run on the heap.
type RunAllocator func(name string, n int) ([]byte, storage.Pinned, error)

// SetRunAllocator installs the allocator final map output runs are
// encoded into; nil, the default, keeps them on the heap. The RDMA engine
// installs one with caching on (DESIGN.md D24).
func (tt *TaskTracker) SetRunAllocator(a RunAllocator) { tt.runAlloc.Store(&a) }

// initNodeTelemetry attaches the per-node registry, its delta shipper,
// and the shared event log, pre-resolving the tracker's own counter
// handles. Called once by the cluster at construction.
func (tt *TaskTracker) initNodeTelemetry(reg *obs.Registry, events *obs.EventLog) {
	tt.nodeReg = reg
	tt.shipper = obs.NewDeltaShipper(tt.host, reg)
	tt.events = events
	tt.nDiskReads = reg.Counter("node.disk.reads")
	tt.nMapoutBytes = reg.Counter("node.mapout.bytes")
}

// ShipDelta collects this node's next telemetry delta (nil when
// telemetry is off). The liveness monitor calls it on every heartbeat.
func (tt *TaskTracker) ShipDelta(now time.Time) *obs.Delta {
	return tt.shipper.Collect(now)
}

// Host returns the node name.
func (tt *TaskTracker) Host() string { return tt.host }

// Conf returns the cluster configuration.
func (tt *TaskTracker) Conf() *config.Config { return tt.conf }

// Fabric returns the cluster's UCR fabric.
func (tt *TaskTracker) Fabric() *ucr.Fabric { return tt.fab }

// Device returns this node's verbs device.
func (tt *TaskTracker) Device() *verbs.Device { return tt.dev }

// Counters returns the cluster-wide stat counters.
func (tt *TaskTracker) Counters() *stats.Counters { return tt.counters }

// Registry returns the obs registry backing the counters, for components
// that want gauges or histograms alongside (and for the debug endpoint).
func (tt *TaskTracker) Registry() *obs.Registry { return tt.counters.Registry() }

// ProfileFor returns the given job's shuffle profile, or nil when
// profiling is off for that job — the nil IS the disabled profiler;
// every obs call site treats it as a free no-op.
func (tt *TaskTracker) ProfileFor(jobID string) *obs.JobProfile {
	if tt.jobObs == nil {
		return nil
	}
	return tt.jobObs.profileFor(jobID)
}

// TraceFor returns the given job's lifecycle trace, or nil when tracing
// is off for that job — the nil IS tracing off, free at every call site.
func (tt *TaskTracker) TraceFor(jobID string) *obs.JobTrace {
	if tt.jobObs == nil {
		return nil
	}
	return tt.jobObs.traceFor(jobID)
}

// Profile returns the newest running job's profile (nil when none).
// Job-scoped code should use ProfileFor; this remains for diagnostics
// that have no job in hand.
func (tt *TaskTracker) Profile() *obs.JobProfile {
	if tt.jobObs == nil {
		return nil
	}
	return tt.jobObs.latestProfile()
}

// Trace returns the newest running job's trace (nil when none). Same
// contract as Profile.
func (tt *TaskTracker) Trace() *obs.JobTrace {
	if tt.jobObs == nil {
		return nil
	}
	return tt.jobObs.latestTrace()
}

// NodeRegistry returns this node's own metric registry (node.* names,
// shipped to the scheduler as heartbeat deltas). Nil when cluster
// telemetry is off — obs handles from a nil registry are free no-ops.
func (tt *TaskTracker) NodeRegistry() *obs.Registry { return tt.nodeReg }

// Events returns the cluster's structured event log (nil when telemetry
// is off; Append on nil is a no-op).
func (tt *TaskTracker) Events() *obs.EventLog { return tt.events }

// Store exposes the node's local disk. Engines read map outputs from here
// (every Get is accounted disk traffic — the PrefetchCache's reason to
// exist) and spill reduce-side runs into it. What Get returns is the
// stored object: a read-only view; clone to mutate.
func (tt *TaskTracker) Store() *storage.LocalStore { return tt.store }

// MapOutput reads one map output partition from local disk. This is the
// accounted disk-read path the HTTP servlet, the Hadoop-A responder, the
// OSU responder's cache-miss path and the prefetcher all go through. The
// run is the stored object itself — a read-only view; clone to mutate —
// and stays readable after the job's outputs are cleaned up; a run the
// store holds pinned comes back as a private copy.
func (tt *TaskTracker) MapOutput(jobID string, mapID, partition int) ([]byte, error) {
	tt.diskReads().Add(1)
	tt.nDiskReads.Add(1)
	var key [64]byte
	return tt.store.GetKey(AppendMapOutputKey(key[:0], jobID, mapID, partition))
}

func (tt *TaskTracker) diskReads() *obs.Counter {
	c := tt.cDiskReads.Load()
	if c == nil {
		c = tt.counters.Handle("tracker.mapoutput.disk.reads")
		tt.cDiskReads.Store(c)
	}
	return c
}

// MapOutputSize returns the stored size of a partition without a disk
// read (namespace metadata, as a real TaskTracker has in memory).
func (tt *TaskTracker) MapOutputSize(jobID string, mapID, partition int) (int64, error) {
	return tt.store.Size(MapOutputKey(jobID, mapID, partition))
}

// storeMapOutput persists one sorted partition of a map's output,
// taking ownership of run: the map task encoded it for this call and
// must not write it afterwards. Overwrite semantics allow recovery
// re-executions to replace a partially lost output with the regenerated
// (identical) bytes.
func (tt *TaskTracker) storeMapOutput(jobID string, mapID, partition int, run []byte) error {
	tt.store.OverwriteOwned(MapOutputKey(jobID, mapID, partition), run)
	tt.nMapoutBytes.Add(int64(len(run)))
	return nil
}

// storeSortedRun persists partition p of a map's output straight from
// the sorted collect buffer and returns the run's length. The run is
// encoded once: into memory the engine's RunAllocator places, stored
// pinned, or, with no allocator or when it cannot place the run, into a
// heap buffer the store takes over.
func (tt *TaskTracker) storeSortedRun(jobID string, mapID, p int, buf *kv.SortBuffer) int {
	name, n := MapOutputKey(jobID, mapID, p), buf.RunLen(p)
	tt.nMapoutBytes.Add(int64(n))
	if alloc := tt.runAlloc.Load(); alloc != nil && *alloc != nil {
		if dst, owner, err := (*alloc)(name, n); err == nil {
			buf.RunInto(p, dst)
			tt.store.OverwritePinned(name, dst, owner)
			return n
		}
	}
	tt.store.OverwriteOwned(name, buf.Run(p))
	return n
}

// CleanupJob removes a finished job's map outputs and any leftover
// spill runs (an attempt aborted mid-spill never merges its spills away)
// from local disk.
func (tt *TaskTracker) CleanupJob(jobID string) {
	for _, prefix := range []string{"mapout", "spill"} {
		for _, name := range tt.store.List(fmt.Sprintf("%s/%s/", prefix, jobID)) {
			_ = tt.store.Delete(name)
		}
	}
}
