package chaos

import (
	"sync"
	"time"

	"rdmamr/internal/mapred"
)

// TrackerKiller is the cluster-side surface a schedule drives: simulated
// node death and restart. *mapred.Cluster satisfies it.
type TrackerKiller interface {
	KillTracker(host string) error
	ReviveTracker(host string) error
}

// Kind is what a scheduled event does.
type Kind int

// Event kinds.
const (
	// LoseOutput deletes map Event.Map's output from the announcing
	// tracker's disk as it is announced, before the engine sees it — the
	// map re-execution path. It takes the map's first announcement once
	// the event is due; several events on one map take successive ones.
	LoseOutput Kind = iota
	// KillPeer refuses every dial toward the host while its tracker lives
	// on: a dead listener, not a dead node. Connections already open keep
	// working.
	KillPeer
	// KillTracker kills the host's tracker: its heartbeats stop and its
	// shuffle server closes, so dials toward it fail with ucr's
	// ErrNoService. The scheduler notices at heartbeat expiry.
	KillTracker
)

// Event is one scripted fault. It is due once the cluster-wide count of
// map-output announcements reaches At and fires once, at the first due
// announcement it applies to.
type Event struct {
	At   int // 1 = due from the first announcement
	Kind Kind
	// Host is the KillPeer or KillTracker target; "" means the host whose
	// announcement fires the event, by construction a node holding map
	// output some reducer needs.
	Host string
	// Map is the LoseOutput victim.
	Map int
	// Undo, when > 0, revives the peer or tracker this long after the
	// kill.
	Undo time.Duration
}

// Schedule wraps a shuffle engine with a list of events, and is the one
// place faults enter a cluster above the fabric: it installs its
// transport injector on the network when the first tracker starts. The
// cluster is built after its engine, so the killer is attached afterwards
// with SetKiller; a KillTracker event due while none is attached fires at
// the first announcement after one is.
type Schedule struct {
	inner  mapred.ShuffleEngine
	inj    *Injector
	events []Event

	install sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex
	killer  TrackerKiller
	outputs int
	fired   []bool
	kills   []string
}

// Wrap scripts events over inner. inj, when non-nil, is installed on the
// cluster's network and carries the KillPeer refusals, so a KillPeer
// event needs one (New(Config{}) faults nothing else).
func Wrap(inner mapred.ShuffleEngine, inj *Injector, events ...Event) *Schedule {
	return &Schedule{inner: inner, inj: inj, events: events, fired: make([]bool, len(events))}
}

// SetKiller attaches the cluster the schedule kills trackers on. Call it
// after mapred.NewCluster and before RunJob.
func (s *Schedule) SetKiller(k TrackerKiller) {
	s.mu.Lock()
	s.killer = k
	s.mu.Unlock()
}

// Kills returns the hosts whose tracker was killed so far, in order. A
// kill the cluster refused (its last live tracker) is not one.
func (s *Schedule) Kills() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.kills...)
}

// Wait blocks until every fired kill and every undo has run: call it
// before tearing the cluster down.
func (s *Schedule) Wait() { s.wg.Wait() }

// announce counts one announcement of mapID by host, fires the
// KillPeer events it makes due and reports whether the output is lost.
// Due tracker kills are returned to be run after the delivery, each on
// its own goroutine: a kill shuts down the very server delivering this
// announcement.
func (s *Schedule) announce(host string, mapID int) (lose bool, kills []func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outputs++
	for i, ev := range s.events {
		if s.fired[i] || s.outputs < ev.At {
			continue
		}
		if ev.Host == "" {
			ev.Host = host
		}
		switch ev.Kind {
		case LoseOutput:
			if lose || ev.Map != mapID {
				continue
			}
			lose = true
		case KillPeer:
			s.inj.KillPeer(ev.Host)
			s.after(ev.Undo, func() { s.inj.RevivePeer(ev.Host) })
		case KillTracker:
			if s.killer == nil {
				continue
			}
			s.wg.Add(1)
			kills = append(kills, s.killTracker(s.killer, ev.Host, ev.Undo))
		}
		s.fired[i] = true
	}
	return lose, kills
}

// after runs fn once d has passed, if d > 0; Wait waits for it.
func (s *Schedule) after(d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	s.wg.Add(1)
	time.AfterFunc(d, func() {
		defer s.wg.Done()
		fn()
	})
}

// killTracker returns the kill of host's tracker, for one wg.Add the
// caller made. A refused kill (the cluster's last live tracker) records
// nothing and schedules no revive.
func (s *Schedule) killTracker(k TrackerKiller, host string, undo time.Duration) func() {
	return func() {
		defer s.wg.Done()
		if k.KillTracker(host) != nil {
			return
		}
		s.mu.Lock()
		s.kills = append(s.kills, host)
		s.mu.Unlock()
		s.after(undo, func() { _ = k.ReviveTracker(host) })
	}
}

// Name implements mapred.ShuffleEngine.
func (s *Schedule) Name() string { return s.inner.Name() + "+chaos" }

// StartTracker implements mapred.ShuffleEngine. The first tracker to
// start installs the transport injector on the network every tracker of
// the cluster shares.
func (s *Schedule) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	if s.inj != nil {
		s.install.Do(func() { tt.Fabric().Network().SetFaultInjector(s.inj) })
	}
	inner, err := s.inner.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &scheduleServer{sched: s, tt: tt, inner: inner}, nil
}

// NewReduceFetcher implements mapred.ShuffleEngine.
func (s *Schedule) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	return s.inner.NewReduceFetcher(task)
}

type scheduleServer struct {
	sched *Schedule
	tt    *mapred.TaskTracker
	inner mapred.TrackerServer
}

// MapOutputReady implements mapred.TrackerServer: a lost output is
// deleted before the inner engine (and its prefetcher) can see it, and
// tracker kills fire after the delivery.
func (s *scheduleServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	lose, kills := s.sched.announce(s.tt.Host(), mapID)
	if lose {
		for r := 0; r < job.NumReduces; r++ {
			_ = s.tt.Store().Delete(mapred.MapOutputKey(job.ID, mapID, r))
		}
		s.tt.Counters().Counter("chaos.outputs.lost").Add(1)
	}
	s.inner.MapOutputReady(job, mapID)
	for _, kill := range kills {
		go kill()
	}
}

// JobComplete implements mapred.TrackerServer.
func (s *scheduleServer) JobComplete(job mapred.JobInfo) { s.inner.JobComplete(job) }

// Close implements mapred.TrackerServer.
func (s *scheduleServer) Close() error { return s.inner.Close() }
