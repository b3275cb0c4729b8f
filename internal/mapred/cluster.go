package mapred

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/hdfs"
	"rdmamr/internal/obs"
	"rdmamr/internal/stats"
	"rdmamr/internal/storage"
	"rdmamr/internal/ucr"
)

// Cluster is a functional MapReduce cluster: an HDFS instance whose
// DataNodes share local disks with the TaskTrackers (as on real slave
// nodes), one verbs device per node on a shared UCR fabric, and a shuffle
// engine started on every tracker.
type Cluster struct {
	fs       *hdfs.FileSystem
	conf     *config.Config
	engine   ShuffleEngine
	fabric   *ucr.Fabric
	trackers []*TaskTracker
	counters *stats.Counters
	phases   *stats.Phases

	// sortBufs recycles map-side collect buffers (*kv.SortBuffer) across
	// map tasks, whatever their job: arena, index and sort scratch are
	// grown once per slot, not once per task.
	sortBufs sync.Pool

	// servers is index-aligned with trackers but mutable: ReviveTracker
	// replaces a decommissioned node's shuffle server with a fresh one.
	smu     sync.RWMutex
	servers []TrackerServer

	// liveness is the heartbeat failure detector; attempts registers
	// running task attempts per tracker so node death cancels them.
	liveness *livenessMonitor
	attempts *attemptRegistry

	// jobObs maps running jobs to their profiles and traces, keyed by
	// jobID — concurrent jobs each get their own instrumentation.
	// lastReport/lastTrace keep the most recent finished job's report and
	// trace so the debug endpoint can serve them between jobs (a failed
	// job's trace is worth the most when debugging).
	jobObs     *jobObsRegistry
	lastReport atomic.Pointer[obs.Report]
	lastTrace  atomic.Pointer[obs.JobTrace]
	// jt is the JobTracker: admission control, the shared slot-worker
	// pool, and the fair-share arbiter every running job's attempts
	// dispatch through.
	jt *jobTracker
	// events is the scheduler's structured event log (always on — its
	// producers are rare control-plane transitions, never data-path);
	// view merges heartbeat-shipped node deltas (nil with telemetry off).
	events  *obs.EventLog
	view    *obs.ClusterView
	httpLn  net.Listener
	httpSrv *http.Server

	mu     sync.Mutex
	jobSeq int
	jobIDs map[string]bool
	// outputs maps a reserved output directory to the job holding the
	// reservation — granted at Submit (with the emptiness check under
	// this mutex) and released when the job finishes.
	outputs   map[string]string
	jobStatus map[string]*jobStatus
	jobOrder  []string
	closed    bool
}

// NewCluster builds a cluster of n nodes named node0..node{n-1} running
// the given shuffle engine. conf may be nil for defaults.
func NewCluster(n int, conf *config.Config, engine ShuffleEngine) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mapred: cluster size %d", n)
	}
	if engine == nil {
		return nil, errors.New("mapred: cluster needs a shuffle engine")
	}
	if conf == nil {
		conf = config.New()
	}
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		fs:       hdfs.New(conf.Int(config.KeyBlockSize), int(conf.Int(config.KeyReplication))),
		conf:     conf,
		engine:   engine,
		fabric:   ucr.NewFabric(),
		counters: &stats.Counters{},
		phases:   &stats.Phases{},
		jobIDs:   make(map[string]bool),
		outputs:  make(map[string]string),
		jobObs:   newJobObsRegistry(),
	}
	c.jobStatus = make(map[string]*jobStatus)
	c.events = obs.NewEventLog(256) // the scheduler's last 256 control-plane events
	// Attach the fabric to the registry — and stand up the per-node
	// telemetry plane (node registries, delta shippers, cluster view) —
	// only when someone will look at the numbers: profiling, tracing, or
	// the debug endpoint. Detached (default), the ucr/verbs data path
	// stays clock-free and every node-metric handle is a nil no-op.
	telemetry := conf.Bool(config.KeyObsProfile) || conf.Bool(config.KeyObsTrace) ||
		conf.Get(config.KeyObsHTTPAddr) != ""
	if telemetry {
		c.fabric.SetRegistry(c.counters.Registry())
		c.view = obs.NewClusterView(64) // heartbeat deltas kept per node for rates
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("node%d", i)
		dev, err := c.fabric.NewDevice(host)
		if err != nil {
			return nil, err
		}
		store := storage.NewLocalStore()
		if err := c.fs.AddDataNode(hdfs.NewDataNode(host, store)); err != nil {
			return nil, err
		}
		tt := &TaskTracker{
			host: host, store: store, fab: c.fabric, dev: dev,
			conf: conf, counters: c.counters, jobObs: c.jobObs,
		}
		var nodeReg *obs.Registry
		if telemetry {
			nodeReg = obs.NewRegistry()
		}
		tt.initNodeTelemetry(nodeReg, c.events)
		c.trackers = append(c.trackers, tt)
		srv, err := engine.StartTracker(tt)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("mapred: starting %s on %s: %w", engine.Name(), host, err)
		}
		c.servers = append(c.servers, srv)
	}
	hosts := make([]string, n)
	for i, tt := range c.trackers {
		hosts[i] = tt.Host()
	}
	c.attempts = newAttemptRegistry(n)
	c.liveness = newLivenessMonitor(hosts,
		time.Duration(conf.Int(config.KeyTrackerExpiry))*time.Millisecond,
		time.Now, c.decommission)
	// Telemetry rides the heartbeat path: every beat observes its spacing
	// and processing-time histograms and ships the node's metric delta
	// into the cluster view (nil shipper/view with telemetry off — the
	// beat then costs two nil-histogram checks).
	c.liveness.hbInterval = c.counters.Registry().Histogram("mapred.tasktracker.heartbeat.interval")
	c.liveness.hbRTT = c.counters.Registry().Histogram("mapred.tasktracker.heartbeat.rtt")
	c.liveness.onBeat = func(ti int, host string) {
		c.counters.Add("mapred.tasktracker.heartbeats", 1)
		c.view.Ingest(c.trackers[ti].ShipDelta(time.Now()))
	}
	// A decommissioned tracker whose heartbeats resume was never dead —
	// the expiry was a false positive (e.g. a starved beat goroutine on a
	// loaded machine). Re-admit it through the same path as an explicit
	// revive: fresh shuffle server, restored membership, woken workers.
	c.liveness.onRecover = func(ti int, host string) {
		_ = c.reviveTracker(host, "heartbeats resumed after expiry (false positive)")
	}
	// The JobTracker must exist before the sweep goroutine can run: the
	// recovery hook walks its running jobs.
	c.jt = newJobTracker(c)
	c.jt.start()
	c.liveness.start()
	if addr := conf.Get(config.KeyObsHTTPAddr); addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("mapred: observability endpoint on %s: %w", addr, err)
		}
		c.httpLn = ln
		c.httpSrv = &http.Server{Handler: obs.NewHandler(obs.HandlerSources{
			Registry: c.counters.Registry(),
			Profile:  c.ProfileReport,
			Cluster:  c.ClusterReport,
			Events:   c.events,
			Trace:    c.TraceReport,
			Jobs:     c.JobsReport,
		})}
		go func() { _ = c.httpSrv.Serve(ln) }()
	}
	return c, nil
}

// ObsAddr returns the listen address of the debug observability endpoint
// ("" when mapred.obs.http.addr is unset).
func (c *Cluster) ObsAddr() string {
	if c.httpLn == nil {
		return ""
	}
	return c.httpLn.Addr().String()
}

// ProfileReport snapshots the newest running job's shuffle profile,
// falling back to the last finished job's report; nil when nothing was
// profiled. Per-job reports are available through ProfileFor on any
// tracker while the job runs, and on its JobResult after.
func (c *Cluster) ProfileReport() *obs.Report {
	if p := c.jobObs.latestProfile(); p != nil {
		return p.Report()
	}
	return c.lastReport.Load()
}

// TraceReport returns the newest running job's lifecycle trace, falling
// back to the most recent job's; nil when nothing was traced.
func (c *Cluster) TraceReport() *obs.JobTrace {
	if t := c.jobObs.latestTrace(); t != nil {
		return t
	}
	return c.lastTrace.Load()
}

// ClusterReport snapshots the heartbeat-shipped per-node telemetry
// (nil when the telemetry plane is off).
func (c *Cluster) ClusterReport() *obs.ClusterReport {
	return c.view.Report(time.Now())
}

// ClusterView exposes the raw merged node-telemetry view (nil when the
// telemetry plane is off) — the surface an adaptive scheduler reads.
func (c *Cluster) ClusterView() *obs.ClusterView { return c.view }

// Events returns the scheduler's structured event log.
func (c *Cluster) Events() *obs.EventLog { return c.events }

// Registry returns the obs registry backing the cluster counters.
func (c *Cluster) Registry() *obs.Registry { return c.counters.Registry() }

// FS returns the cluster's HDFS (for loading inputs and reading outputs).
func (c *Cluster) FS() *hdfs.FileSystem { return c.fs }

// Conf returns the cluster configuration.
func (c *Cluster) Conf() *config.Config { return c.conf }

// Engine returns the shuffle engine.
func (c *Cluster) Engine() ShuffleEngine { return c.engine }

// Counters returns the cluster-wide counters.
func (c *Cluster) Counters() *stats.Counters { return c.counters }

// Trackers returns the TaskTrackers (for tests and diagnostics).
func (c *Cluster) Trackers() []*TaskTracker { return c.trackers }

// Servers returns the per-tracker shuffle servers, index-aligned with
// Trackers (for tests and diagnostics).
func (c *Cluster) Servers() []TrackerServer {
	c.smu.RLock()
	defer c.smu.RUnlock()
	return append([]TrackerServer(nil), c.servers...)
}

// server returns tracker ti's current shuffle server (revive replaces
// them, so index once under the lock).
func (c *Cluster) server(ti int) TrackerServer {
	c.smu.RLock()
	defer c.smu.RUnlock()
	return c.servers[ti]
}

func (c *Cluster) trackerIndex(host string) (int, error) {
	for i, tt := range c.trackers {
		if tt.Host() == host {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mapred: no tracker named %q", host)
}

// KillTracker simulates node death for tests and chaos schedules: the
// tracker's process is gone — heartbeats stop, its shuffle server shuts
// down (in-flight responder work errors out), and every task attempt
// running there is cancelled. The scheduler only learns of the death
// when the missing heartbeats exceed mapred.tasktracker.expiry.interval
// and the sweep decommissions the node. Killing the last live tracker
// is refused.
func (c *Cluster) KillTracker(host string) error {
	ti, err := c.trackerIndex(host)
	if err != nil {
		return err
	}
	if err := c.liveness.suppress(ti); err != nil {
		return err
	}
	c.attempts.killAll(ti)
	_ = c.server(ti).Close()
	return nil
}

// ReviveTracker restarts a killed or decommissioned tracker: a fresh
// shuffle server is started for it, heartbeats resume, membership is
// restored, and parked slot workers wake up and take new work.
func (c *Cluster) ReviveTracker(host string) error {
	return c.reviveTracker(host, "")
}

func (c *Cluster) reviveTracker(host, cause string) error {
	ti, err := c.trackerIndex(host)
	if err != nil {
		return err
	}
	if c.liveness.isUp(ti) {
		return nil
	}
	srv, err := c.engine.StartTracker(c.trackers[ti])
	if err != nil {
		return fmt.Errorf("mapred: reviving %s: %w", host, err)
	}
	c.smu.Lock()
	c.servers[ti] = srv
	c.smu.Unlock()
	c.liveness.revive(ti)
	// Stale death announcements would condemn the revived host to every
	// future reduce attempt; retract them so only subscribers that
	// already marked it lost still have to retry their way back.
	c.jt.forEachRunning(func(rj *runningJob) { rj.losses.Retract(host) })
	c.counters.Add("mapred.tasktracker.revived", 1)
	c.events.Append(obs.Event{Type: obs.EvTrackerRevived, Host: host, Cause: cause})
	return nil
}

// decommission is the liveness monitor's expiry hook: the scheduler has
// declared tracker ti dead. Its running attempts are cancelled, its
// responder is fenced off, and each running job's watcher (registered
// when the job was admitted) reschedules its work and re-hosts its
// completed map outputs.
func (c *Cluster) decommission(ti int, host string) {
	c.counters.Add("mapred.tasktracker.expired", 1)
	c.events.Append(obs.Event{Type: obs.EvHeartbeatExpired, Host: host,
		Cause: fmt.Sprintf("no heartbeat within %v", c.liveness.expiry)})
	c.counters.Add("mapred.tasktracker.decommissioned", 1)
	c.events.Append(obs.Event{Type: obs.EvTrackerDecommissioned, Host: host,
		Cause: "declared dead by liveness sweep"})
	c.view.MarkStale(host)
	c.attempts.killAll(ti)
	_ = c.server(ti).Close()
}

// Close shuts down the liveness monitor, the shuffle servers and then the
// fabric's device receive pumps, failing whatever end-points are still
// open on them (the copier side's cached connections): a closed cluster
// leaves no goroutine behind.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.jt != nil {
		c.jt.shutdown()
	}
	if c.liveness != nil {
		c.liveness.stopAll()
	}
	if c.httpSrv != nil {
		_ = c.httpSrv.Close()
	}
	for _, s := range c.Servers() {
		_ = s.Close()
	}
	c.fabric.Close()
}

// JobResult summarizes a completed job.
type JobResult struct {
	JobID       string
	Duration    time.Duration
	NumMaps     int
	NumReduces  int
	OutputFiles []string
	// Counters holds the per-job delta of cluster counters.
	Counters map[string]int64
	// Phases holds the per-job delta of accumulated task-phase wall time
	// (map.task, reduce.shuffle, reduce.apply) summed across tasks.
	Phases map[string]time.Duration
	// Profile is the shuffle observability report, non-nil only when the
	// job ran with mapred.obs.profile.enabled.
	Profile *obs.Report
	// Trace is the job lifecycle trace (dispatch → map → shuffle →
	// merge → reduce spans, exportable as Chrome trace-event JSON via
	// Trace.ChromeTrace()), non-nil only with mapred.obs.trace.enabled.
	Trace *obs.JobTrace
}

// split is one map task's input: one block of a splittable file or a
// whole non-splittable file.
type split struct {
	id     int
	path   string
	blocks []hdfs.BlockLocation
	hosts  []string // candidate local hosts
}

func (c *Cluster) planSplits(job *Job) ([]*split, error) {
	var splits []*split
	for _, path := range job.Input {
		info, err := c.fs.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("mapred: input %s: %w", path, err)
		}
		if job.InputFormat.Splittable(c.fs.BlockSize()) {
			for _, bl := range info.Blocks {
				splits = append(splits, &split{
					id: len(splits), path: path,
					blocks: []hdfs.BlockLocation{bl}, hosts: bl.Hosts,
				})
			}
		} else {
			sp := &split{id: len(splits), path: path, blocks: info.Blocks}
			if len(info.Blocks) > 0 {
				sp.hosts = info.Blocks[0].Hosts
			}
			splits = append(splits, sp)
		}
	}
	if len(splits) == 0 {
		return nil, errors.New("mapred: no input splits")
	}
	return splits, nil
}

// RunJob executes a job to completion, returning its result. It is
// Submit followed by an unconditional wait: when RunJob returns, the
// job has fully finished — including output scrubbing on failure — so
// callers never observe a half-cleaned cluster. Cancel the passed
// context to abort the job.
func (c *Cluster) RunJob(ctx context.Context, spec *Job) (*JobResult, error) {
	h, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return h.wait()
}
