package mapred

import (
	"fmt"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/obs"
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
	host  string
	store *storage.LocalStore
	fab   *ucr.Fabric
	dev   *verbs.Device
	conf  *config.Config
	// reg holds every counter of this node's work; the cluster's
	// Counters view combines it with the other nodes'.
	reg *obs.Registry
	// jobObs is the cluster's per-job record registry: task code asks
	// for the record of the job it is running (keyed by jobID), so
	// concurrent jobs never see each other's instrumentation. A nil
	// registry, or a job without a record, yields nil — the
	// disabled-observability fast path at every call site.
	jobObs *jobObsRegistry
	// events is the cluster's shared structured event log (servers
	// append lease-expiry events through it).
	events *obs.EventLog
	// cDiskReads is tracker.mapoutput.disk.reads, resolved at
	// construction so that MapOutput looks no name up.
	cDiskReads *obs.Counter
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

// newTaskTracker makes host's tracker over its local disk, with the
// node's own counter registry.
func newTaskTracker(host string, store *storage.LocalStore) *TaskTracker {
	reg := obs.NewRegistry()
	return &TaskTracker{host: host, store: store, reg: reg,
		cDiskReads: reg.Counter("tracker.mapoutput.disk.reads")}
}

// Host returns the node name.
func (tt *TaskTracker) Host() string { return tt.host }

// Conf returns the cluster configuration.
func (tt *TaskTracker) Conf() *config.Config { return tt.conf }

// Fabric returns the cluster's UCR fabric.
func (tt *TaskTracker) Fabric() *ucr.Fabric { return tt.fab }

// Device returns this node's verbs device.
func (tt *TaskTracker) Device() *verbs.Device { return tt.dev }

// Counters returns this node's counter registry: every counter of the
// work the node does, map and reduce tasks, shuffle serving and fetching.
func (tt *TaskTracker) Counters() *obs.Registry { return tt.reg }

// TraceFor returns the given job's record (mapred.obs.profile.enabled),
// or nil when it is off for that job — the nil IS observability off,
// free at every call site.
func (tt *TaskTracker) TraceFor(jobID string) *obs.JobTrace {
	if tt.jobObs == nil {
		return nil
	}
	return tt.jobObs.traceFor(jobID)
}

// taskSpan is a span of kind k of one task attempt on tt, from start to
// now.
func taskSpan(k obs.SpanKind, tt *TaskTracker, id, attempt, slot int, start time.Time) obs.Span {
	return obs.Span{Kind: k, Task: int32(id), Attempt: int32(attempt), Slot: int32(slot),
		Node: tt.Host(), Start: start, End: time.Now()}
}

// Events returns the cluster's structured event log (Append on nil is a
// no-op).
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
	tt.cDiskReads.Add(1)
	var key [64]byte
	return tt.store.GetKey(AppendMapOutputKey(key[:0], jobID, mapID, partition))
}

// storeMapOutput persists one sorted partition of a map's output,
// taking ownership of run: the map task encoded it for this call and
// must not write it afterwards. Overwrite semantics allow recovery
// re-executions to replace a partially lost output with the regenerated
// (identical) bytes.
func (tt *TaskTracker) storeMapOutput(jobID string, mapID, partition int, run []byte) error {
	tt.store.OverwriteOwned(MapOutputKey(jobID, mapID, partition), run)
	return nil
}

// storeSortedRun persists partition p of a map's output straight from
// the sorted collect buffer and returns the run's length. The run is
// encoded once: into memory the engine's RunAllocator places, stored
// pinned, or, with no allocator or when it cannot place the run, into a
// heap buffer the store takes over.
func (tt *TaskTracker) storeSortedRun(jobID string, mapID, p int, buf *kv.SortBuffer) int {
	name, n := MapOutputKey(jobID, mapID, p), buf.RunLen(p)
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
