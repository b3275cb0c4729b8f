package core

import (
	"rdmamr/internal/mapred"
)

// Engine is one RDMA shuffle — RDMAListener, per-connection
// receiver/responders, RDMACopier and streaming merge — under a fixed
// serving policy. New gives the OSU-IB design (the paper's figures label
// it "OSU-IB (32Gbps)"); NewHadoopA gives the Hadoop-A baseline on the
// same transport. Within that policy its behaviour follows the
// configuration keys the paper exposes (§III-C.3):
//
//   - mapred.local.caching.enabled — PrefetchCache on/off (Figure 8)
//   - mapred.rdma.packet.size — RDMA packet size
//   - mapred.rdma.kvpairs.per.packet — records per packet
//   - mapred.rdma.responder.threads — requests in service at once per tracker
//   - mapred.rdma.prefetch.threads — prefetcher pool size
type Engine struct {
	name      string
	cache     bool // PrefetchCache, when mapred.local.caching.enabled agrees
	sizeAware bool // D4: fill packets by bytes, not by record count
}

// New returns the OSU-IB engine.
func New() *Engine { return &Engine{name: "osu-ib-rdma", cache: true, sizeAware: true} }

// NewHadoopA returns the Hadoop-A baseline the paper compares against
// (Wang et al., "Hadoop Acceleration through Network Levitated Merge",
// SC'11; shipped as Mellanox UDA): the OSU engine's verbs transport,
// copier and streaming merge, differing in exactly the two ways §III-C
// identifies and in nothing else:
//
//  1. No intermediate-data pre-fetching or caching: every packet request
//     reads the map output from local disk ("DataEngine doesn't provide
//     data caching to decrease the disk access"), whatever
//     mapred.local.caching.enabled says.
//  2. Size-oblivious packet filling: a fixed number of key-value pairs
//     per packet, up to the copier's slot, regardless of their size — the
//     "inefficiency in number of key-value pairs transferred each time"
//     that makes Hadoop-A lose to IPoIB on the Sort benchmark's
//     ≤20,000-byte records (§IV-C).
//
// The levitated merge — remote-resident sorted segments merged through a
// priority queue, each refilled a packet at a time on demand — is the
// copier and merge the two engines share. With no cache there is nothing
// to publish a manifest against, so every packet arrives eagerly, as a
// responder RDMA write, where UDA had the reducer READ it.
func NewHadoopA() *Engine { return &Engine{name: "hadoop-a"} }

// Name implements mapred.ShuffleEngine.
func (e *Engine) Name() string { return e.name }

// StartTracker implements mapred.ShuffleEngine: it brings up the
// RDMAListener (each accepted connection gets a receiver that serves its
// requests under the tracker's in-service bound) and the
// MapOutputPrefetcher on one TaskTracker.
func (e *Engine) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	return startTrackerServer(tt, e)
}

// NewReduceFetcher implements mapred.ShuffleEngine: it creates the
// RDMACopier + streaming merge pipeline for one reduce task.
func (e *Engine) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	return newFetcher(task), nil
}
