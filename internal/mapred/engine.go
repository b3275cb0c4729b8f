package mapred

import (
	"context"

	"rdmamr/internal/kv"
)

// MapEvent announces a completed MapTask to reduce-side fetchers — the
// signal the paper's Map Completion Fetcher waits on before telling
// copiers to request that map's output.
type MapEvent struct {
	MapID int
	Host  string // TaskTracker host serving the output
}

// ShuffleEngine is the pluggable shuffle/merge implementation seam. One
// engine instance serves a whole cluster: StartTracker is called once per
// TaskTracker at cluster start, NewReduceFetcher once per ReduceTask.
type ShuffleEngine interface {
	// Name identifies the engine in stats and figure legends.
	Name() string

	// StartTracker starts the tracker-side shuffle server (HTTP servlets
	// for vanilla, RDMAListener/Receiver/Responder for the RDMA designs).
	StartTracker(tt *TaskTracker) (TrackerServer, error)

	// NewReduceFetcher creates the reduce-side shuffle+merge pipeline for
	// one reduce task.
	NewReduceFetcher(task ReduceTaskInfo) (ReduceFetcher, error)
}

// TrackerServer is the per-TaskTracker shuffle serving side.
type TrackerServer interface {
	// MapOutputReady notifies the server that a completed map's output
	// partitions are available on local disk. The OSU engine's
	// MapOutputPrefetcher begins caching from this signal (§III-B.3).
	MapOutputReady(job JobInfo, mapID int)

	// JobComplete tells the server a job has finished so per-job state
	// (cached map outputs, pending prefetches) can be released.
	JobComplete(job JobInfo)

	// Close releases the server's resources.
	Close() error
}

// ReduceTaskInfo hands a reduce-side fetcher everything it needs.
type ReduceTaskInfo struct {
	Job      JobInfo
	ReduceID int
	// Attempt numbers this execution of the reduce (1 = original; retries
	// and speculative backups get fresh numbers). Engines may use it for
	// logging and correlation IDs.
	Attempt int
	// Events delivers map-completion events; the channel closes after the
	// final map completes. Buffered so the producer never blocks.
	Events <-chan MapEvent
	// Local is the TaskTracker executing this reduce task: its device is
	// the endpoint for RDMA traffic and its store backs disk spills.
	Local *TaskTracker
	// Hosts lists every TaskTracker host, so copiers can pre-establish
	// connections ("one RDMACopier sends such information to all
	// available TaskTrackers", §III-B.1).
	Hosts []string
	// RecoverMap requests re-execution of a map whose output can no
	// longer be fetched (lost disk, dead tracker). attempt starts at 1
	// and increments per retry of the same map by the same fetcher;
	// concurrent reports share one re-execution. It returns the host now
	// serving the regenerated (byte-identical) output. Nil disables
	// recovery: fetch failures then fail the reduce task.
	RecoverMap func(ctx context.Context, mapID, attempt int) (string, error)
	// Losses streams TaskTracker-death announcements from the cluster's
	// heartbeat failure detector. Engines that subscribe can fail a dead
	// host's connections immediately and escalate to RecoverMap instead
	// of waiting out request deadlines and reconnect budgets. Nil (and a
	// nil subscription) means no liveness information is available.
	Losses *TrackerLossFeed
}

// ReduceFetcher runs shuffle + merge for one reduce partition.
//
// The overlap contract (§III-B.4): Fetch may return as soon as merged
// records CAN be produced — a streaming engine (OSU-IB) returns an
// iterator whose Next blocks until data arrives, so the reduce function
// overlaps shuffle and merge; a barrier engine (vanilla) returns only
// after all merges complete.
//
// The one-behind rule: the record call n of the iterator's Next returns
// stays intact until call n + 2 starts — through call n + 1, also when
// that call ends the stream — or until Close, whichever comes first. The
// reduce task groups records by holding the newest one where the stream
// has it (reduceGroups). An engine may give a record's buffer back only
// after that window, or when the stream has ended in an error.
type ReduceFetcher interface {
	Fetch(ctx context.Context) (kv.Iterator, error)
	// Close releases connections and buffers after the reduce finishes.
	Close() error
}
