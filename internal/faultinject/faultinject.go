// Package faultinject provides a shuffle-engine wrapper that composes
// two failure modes for fault-tolerance tests: intermediate-data loss
// (chosen maps' output files vanish from the TaskTracker's local disk
// immediately after the map completes, before any reducer can fetch
// them — the map re-execution path, the paper's §VI future work) and
// fabric-level transport faults (a verbs.FaultInjector, typically a
// seeded chaos.Injector, installed on the cluster's network when the
// first tracker starts — the copier's reconnect/retry path).
package faultinject

import (
	"sync"

	"rdmamr/internal/mapred"
	"rdmamr/internal/verbs"
)

// Options configures the wrapper.
type Options struct {
	// LoseMapIDs lists maps whose output is destroyed exactly once (the
	// first time it is announced; the re-executed output survives).
	LoseMapIDs []int
	// Transport, when non-nil, is installed on the fabric's network when
	// the first tracker starts, injecting transport faults under the
	// running job. Composable with output loss: a chaos run can exercise
	// reconnects and map re-execution at once.
	Transport verbs.FaultInjector
}

// Engine wraps an inner shuffle engine, injecting the configured faults.
type Engine struct {
	inner mapred.ShuffleEngine
	opts  Options

	installOnce sync.Once // Transport installs on the first tracker's network

	mu   sync.Mutex
	lose map[int]bool // mapIDs whose first output announcement is sabotaged
	done map[int]bool // maps already sabotaged (recoveries are spared)

	// LostCount reports how many injections actually fired.
	lost int
}

// Wrap returns a fault-injecting wrapper around inner that destroys the
// output of each listed mapID exactly once. Shorthand for WrapOptions
// with only LoseMapIDs set; existing call sites keep working.
func Wrap(inner mapred.ShuffleEngine, loseMapIDs ...int) *Engine {
	return WrapOptions(inner, Options{LoseMapIDs: loseMapIDs})
}

// WrapOptions returns a fault-injecting wrapper configured by opts.
func WrapOptions(inner mapred.ShuffleEngine, opts Options) *Engine {
	lose := make(map[int]bool, len(opts.LoseMapIDs))
	for _, id := range opts.LoseMapIDs {
		lose[id] = true
	}
	return &Engine{inner: inner, opts: opts, lose: lose, done: make(map[int]bool)}
}

// Name implements mapred.ShuffleEngine.
func (e *Engine) Name() string { return e.inner.Name() + "+faultinject" }

// LostCount returns the number of injections that fired.
func (e *Engine) LostCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lost
}

// StartTracker implements mapred.ShuffleEngine. The first tracker to
// start installs the transport fault injector on the shared network
// (every tracker in a cluster rides the same fabric).
func (e *Engine) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	if e.opts.Transport != nil {
		e.installOnce.Do(func() {
			tt.Fabric().Network().SetFaultInjector(e.opts.Transport)
		})
	}
	inner, err := e.inner.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &server{engine: e, tt: tt, inner: inner}, nil
}

// NewReduceFetcher implements mapred.ShuffleEngine.
func (e *Engine) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	return e.inner.NewReduceFetcher(task)
}

type server struct {
	engine *Engine
	tt     *mapred.TaskTracker
	inner  mapred.TrackerServer
}

// MapOutputReady implements mapred.TrackerServer: sabotage first, then
// let the inner engine (and its prefetcher) discover the loss.
func (s *server) MapOutputReady(job mapred.JobInfo, mapID int) {
	s.engine.mu.Lock()
	sabotage := s.engine.lose[mapID] && !s.engine.done[mapID]
	if sabotage {
		s.engine.done[mapID] = true
		s.engine.lost++
	}
	s.engine.mu.Unlock()
	if sabotage {
		for r := 0; r < job.NumReduces; r++ {
			_ = s.tt.Store().Delete(mapred.MapOutputKey(job.ID, mapID, r))
		}
		s.tt.Counters().Counter("faultinject.outputs.lost").Add(1)
	}
	s.inner.MapOutputReady(job, mapID)
}

// JobComplete implements mapred.TrackerServer.
func (s *server) JobComplete(job mapred.JobInfo) { s.inner.JobComplete(job) }

// Close implements mapred.TrackerServer.
func (s *server) Close() error { return s.inner.Close() }
