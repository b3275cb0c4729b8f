package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/verbs"
)

// oneShot is a scripted injector: it lets skip matching sends through,
// fires its verdict exactly once, then goes quiet. Deterministic enough
// to pin which recovery path a test exercises.
type oneShot struct {
	verdict verbs.FaultVerdict

	mu    sync.Mutex
	skip  int
	fired bool
}

func (o *oneShot) SendVerdict(_, _ string, op verbs.Opcode, _ int) verbs.FaultVerdict {
	if op != verbs.OpSend {
		return verbs.FaultVerdict{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fired {
		return verbs.FaultVerdict{}
	}
	if o.skip > 0 {
		o.skip--
		return verbs.FaultVerdict{}
	}
	o.fired = true
	return o.verdict
}

func (o *oneShot) DialRefused(_, _ string) bool { return false }

// TestCopierHealsFromSeveredQP severs a QP mid-stream and requires the
// fetcher to reconnect, re-issue the dead connection's in-flight
// requests, and still merge the exact sorted union — no RecoverMap (the
// harness wires none, so any escalation fails the fetch).
func TestCopierHealsFromSeveredQP(t *testing.T) {
	h := newRingHarness(t, stressConf(8), 16, 80)
	net := h.tt.Fabric().Network()
	net.SetFaultInjector(&oneShot{verdict: verbs.FaultVerdict{Action: verbs.FaultSeverQP}, skip: 4})
	defer net.SetFaultInjector(nil)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx)

	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.reconnects") < 1 {
		t.Fatalf("reconnects = %d, want >= 1", c.Get("shuffle.rdma.reconnects"))
	}
	if c.Get("shuffle.rdma.retries") < 1 {
		t.Fatalf("retries = %d, want >= 1 (in-flight requests must re-issue)", c.Get("shuffle.rdma.retries"))
	}
	if c.Get("shuffle.fetch.failures") != 0 {
		t.Fatalf("fetch escalated to recovery %d times; self-healing should absorb a sever", c.Get("shuffle.fetch.failures"))
	}
}

// TestCopierRequestDeadlineReissues stalls one operation far past
// mapred.rdma.request.timeout: the supervisor's deadline check must fail
// the connection, bump shuffle.rdma.deadline.exceeded, and the re-issued
// request must complete the merge byte-exact. The deadline and idle clocks
// share one ticker, paced by the shorter window, so the deadline must fire
// whether the idle clock is off, slower, or much faster.
func TestCopierRequestDeadlineReissues(t *testing.T) {
	for _, tc := range []struct {
		name string
		idle int64 // ms; -1 keeps the default
	}{
		{"idle-default", -1},
		{"idle-off", 0},
		{"idle-5ms", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conf := stressConf(8)
			conf.SetInt(config.KeyRDMARequestTimeout, 40) // ms
			if tc.idle >= 0 {
				conf.SetInt(config.KeyRDMAConnIdleTimeout, tc.idle)
			}
			h := newRingHarness(t, conf, 8, 60)
			net := h.tt.Fabric().Network()
			net.SetFaultInjector(&oneShot{
				verdict: verbs.FaultVerdict{Action: verbs.FaultDelay, Delay: 600 * time.Millisecond},
				skip:    2,
			})
			defer net.SetFaultInjector(nil)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			h.fetch(ctx)

			c := h.cluster.Counters()
			if c.Get("shuffle.rdma.deadline.exceeded") < 1 {
				t.Fatalf("deadline.exceeded = %d, want >= 1", c.Get("shuffle.rdma.deadline.exceeded"))
			}
			if c.Get("shuffle.rdma.reconnects") < 1 {
				t.Fatalf("reconnects = %d, want >= 1 after a deadline abort", c.Get("shuffle.rdma.reconnects"))
			}
		})
	}
}

// leases is the number of leases on the plane's connection to host.
func (p *connPlane) leases(host string) int {
	p.mu.Lock()
	sc := p.conns[host]
	p.mu.Unlock()
	if sc == nil {
		return 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.refs
}

// TestCopierIdleRetirementRedialsLazily: a host connection that carries
// nothing for mapred.rdma.conn.idle.timeout retires cleanly, and the next
// demand for that host dials again. Neither step is a failure: the fetch
// completes with no reconnect and no retry counted.
func TestCopierIdleRetirementRedialsLazily(t *testing.T) {
	conf := stressConf(2)
	conf.SetInt(config.KeyRDMAConnIdleTimeout, 20) // ms
	h := newRingHarness(t, conf, 2, 40)
	events := make(chan mapred.MapEvent, h.numMaps)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()},
	})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	it, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The first Next waits for every map, so the consumer runs beside the
	// events. Until then nothing asks for map 0's second chunk, and its
	// connection goes quiet once the first has arrived.
	var n int
	var fetchErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it.Next() {
			n++
		}
		fetchErr = it.Err()
	}()
	defer func() { cancel(); <-done }()
	plane := planeOf(h.tt)
	c := h.cluster.Counters()
	events <- mapred.MapEvent{MapID: 0, Host: h.tt.Host()}
	// The connection that carried the chunk has given its lease back.
	waitFor(t, func() bool {
		return c.Get("shuffle.rdma.packets") >= 1 && plane.leases(h.tt.Host()) == 0
	})
	events <- mapred.MapEvent{MapID: 1, Host: h.tt.Host()}
	close(events)

	<-done
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if n != len(h.expected) {
		t.Fatalf("merged %d records, want %d", n, len(h.expected))
	}
	if got := c.Get("shuffle.rdma.reconnects"); got != 0 {
		t.Fatalf("reconnects = %d, want 0: idle retirement is not a failure", got)
	}
	if got := c.Get("shuffle.rdma.retries"); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

// TestIdleRetirementReleasesPlanLeases: a manifest's first chunk is
// READ, and the segment does not ask for the rest before its connection
// retires idle. The plan dies with the connection, and so must the
// server's lease on the run: kept, it would pin the cached run until the
// lease deadline, past the end of its job.
func TestIdleRetirementReleasesPlanLeases(t *testing.T) {
	conf := stressConf(2)
	conf.SetInt(config.KeyRDMAConnIdleTimeout, 20) // ms
	h := newRingHarness(t, conf, 2, 40)
	s := h.cluster.Servers()[0].(*trackerServer)
	run, err := h.tt.MapOutput(h.job.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.cache.Put(CacheKey{JobID: h.job.ID, MapID: 0, Partition: 0}, run, PriorityPrefetch) {
		t.Fatal("put rejected")
	}
	events := make(chan mapred.MapEvent, h.numMaps)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()},
	})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	it, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The first Next waits for every map, so nothing asks for map 0's
	// second chunk until map 1 is announced.
	var n int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it.Next() {
			n++
		}
	}()
	defer func() { cancel(); <-done }()
	c := h.cluster.Counters()
	events <- mapred.MapEvent{MapID: 0, Host: h.tt.Host()}
	waitFor(t, func() bool {
		return c.Get("shuffle.rdma.read.manifests") == 1 && planeOf(h.tt).leases(h.tt.Host()) == 0
	})
	waitFor(t, func() bool { return s.leases.live() == 0 })

	events <- mapred.MapEvent{MapID: 1, Host: h.tt.Host()}
	close(events)
	<-done
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(h.expected) {
		t.Fatalf("merged %d records, want %d", n, len(h.expected))
	}
}

// TestCopierLossNoticeEndsAdmissionWait: a host the node's blacklist has
// embargoed for a minute is declared dead by the cluster while the
// supervisor waits out its admission delay. The notice ends the wait, and
// the segment reaches RecoverMap at once instead of after the embargo.
func TestCopierLossNoticeEndsAdmissionWait(t *testing.T) {
	h := newRingHarness(t, stressConf(2), 1, 10)
	ph := planeOf(h.tt).healthOf(h.tt.Host())
	// The supervisor reads the health clock to size its admission wait:
	// that read is the signal that the wait is about to begin.
	asked := make(chan struct{})
	var once sync.Once
	ph.mu.Lock()
	ph.blackUntil = time.Now().Add(time.Minute)
	ph.now = func() time.Time {
		once.Do(func() { close(asked) })
		return time.Now()
	}
	ph.mu.Unlock()
	t.Cleanup(func() {
		ph.mu.Lock()
		ph.blackUntil, ph.now = time.Time{}, nil
		ph.mu.Unlock()
	})

	recovered := make(chan int, 1)
	losses := mapred.NewTrackerLossFeed()
	events := make(chan mapred.MapEvent, 1)
	events <- mapred.MapEvent{MapID: 0, Host: h.tt.Host()}
	close(events)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()}, Losses: losses,
		RecoverMap: func(_ context.Context, mapID, _ int) (string, error) {
			recovered <- mapID
			return "", fmt.Errorf("map %d: no host to re-run it on", mapID)
		},
	})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pulled := make(chan struct{})
	go func() {
		defer close(pulled)
		for it.Next() {
		}
	}()
	defer func() { cancel(); <-pulled }()
	// The notice must end the wait, not precede it.
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the supervisor never consulted the blacklist")
	}
	losses.Announce(h.tt.Host())
	select {
	case m := <-recovered:
		if m != 0 {
			t.Fatalf("RecoverMap(%d), want map 0", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("segment did not reach RecoverMap within 10 s of the loss notice")
	}
}

// TestCopierLegacyEscalationNoRetries pins the retries=0 contract: the
// first transport error consumes the (empty) budget immediately and the
// segment escalates instead of reconnecting — the pre-robustness
// behaviour, preserved as a configuration point.
func TestCopierLegacyEscalationNoRetries(t *testing.T) {
	conf := stressConf(4)
	conf.SetInt(config.KeyRDMAConnectRetries, 0)
	h := newRingHarness(t, conf, 4, 40)
	net := h.tt.Fabric().Network()
	net.SetFaultInjector(&oneShot{verdict: verbs.FaultVerdict{Action: verbs.FaultSeverQP}})
	defer net.SetFaultInjector(nil)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	events := make(chan mapred.MapEvent, h.numMaps)
	for m := 0; m < h.numMaps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: h.tt.Host()}
	}
	close(events)
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: h.tt, Hosts: []string{h.tt.Host()},
	})
	defer f.Close()
	it, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	if err := it.Err(); err == nil {
		t.Fatal("fetch succeeded despite a severed QP and a zero retry budget")
	} else if !strings.Contains(err.Error(), "retry budget exhausted") && !strings.Contains(err.Error(), "declared dead") {
		t.Fatalf("escalation error = %v, want a budget-exhaustion failure", err)
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.reconnects") != 0 {
		t.Fatalf("reconnects = %d with retries=0; legacy mode must not reconnect", c.Get("shuffle.rdma.reconnects"))
	}
	if c.Get("shuffle.rdma.retries") != 0 {
		t.Fatalf("retries = %d with retries=0", c.Get("shuffle.rdma.retries"))
	}
}

// multiHostHarness spreads map outputs across a 3-node cluster and runs
// one fetcher (local to node 0) against all of them — the acceptance
// topology for the seeded chaos run.
type multiHostHarness struct {
	t        *testing.T
	cluster  *mapred.Cluster
	trackers []*mapred.TaskTracker
	job      mapred.JobInfo
	numMaps  int
	expected []kv.Record
}

func newMultiHostHarness(t *testing.T, conf *config.Config, nodes, numMaps, recsPerMap int) *multiHostHarness {
	t.Helper()
	cluster, err := mapred.NewCluster(nodes, conf, New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	h := &multiHostHarness{
		t: t, cluster: cluster, trackers: cluster.Trackers(),
		job: mapred.JobInfo{
			ID: "job_chaos", Conf: conf, Comparator: kv.BytesComparator,
			NumMaps: numMaps, NumReduces: 1,
		},
		numMaps: numMaps,
	}
	for m := 0; m < numMaps; m++ {
		recs := make([]kv.Record, 0, recsPerMap)
		for i := 0; i < recsPerMap; i++ {
			recs = append(recs, kv.Record{
				Key:   []byte(fmt.Sprintf("k%05d-m%03d", i, m)),
				Value: bytes.Repeat([]byte{byte(m), byte(i)}, 32),
			})
		}
		tt := h.trackers[m%nodes]
		tt.Store().Overwrite(mapred.MapOutputKey(h.job.ID, m, 0), kv.WriteRun(recs))
		h.expected = append(h.expected, recs...)
	}
	sort.Slice(h.expected, func(i, j int) bool {
		return bytes.Compare(h.expected[i].Key, h.expected[j].Key) < 0
	})
	return h
}

func (h *multiHostHarness) fetch(ctx context.Context) {
	events := make(chan mapred.MapEvent, h.numMaps)
	hosts := make([]string, len(h.trackers))
	for i, tt := range h.trackers {
		hosts[i] = tt.Host()
	}
	for m := 0; m < h.numMaps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: h.trackers[m%len(h.trackers)].Host()}
	}
	close(events)
	local := h.trackers[0]
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: local, Hosts: hosts,
	})
	defer f.Close()
	it, err := f.Fetch(ctx)
	if err != nil {
		h.t.Fatal(err)
	}
	n := 0
	for it.Next() {
		rec := it.Record()
		if n >= len(h.expected) {
			h.t.Fatalf("more than %d records merged", len(h.expected))
		}
		want := h.expected[n]
		if !bytes.Equal(rec.Key, want.Key) || !bytes.Equal(rec.Value, want.Value) {
			h.t.Fatalf("record %d = %q/%x, want %q/%x", n, rec.Key, rec.Value, want.Key, want.Value)
		}
		n++
	}
	if err := it.Err(); err != nil {
		h.t.Fatal(err)
	}
	if n != len(h.expected) {
		h.t.Fatalf("merged %d records, want %d", n, len(h.expected))
	}
}

// chaosSeed returns the seed for the acceptance chaos run: fixed at 7
// for reproducible CI, overridable via RDMAMR_CHAOS_SEED to sweep other
// fault interleavings (`make chaos RDMAMR_CHAOS_SEED=n`).
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("RDMAMR_CHAOS_SEED")
	if s == "" {
		return 7
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RDMAMR_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed overridden: %d", seed)
	return seed
}

// TestCopierSeededChaosMultiHost is the acceptance run: a seeded chaos
// injector severing QPs and delaying completions under a depth-8
// multi-host fetch. The merge must complete byte-identical to the
// fault-free run, with reconnects observed and zero RecoverMap
// escalations (the harness wires none, so any escalation fails loudly).
func TestCopierSeededChaosMultiHost(t *testing.T) {
	conf := stressConf(8)
	// Headroom above the worst case of every injected fault landing on
	// one peer: the budget must outlast MaxFaults below.
	conf.SetInt(config.KeyRDMAConnectRetries, 12)
	conf.SetInt(config.KeyRDMARequestTimeout, 2000)
	h := newMultiHostHarness(t, conf, 3, 18, 80)

	inj := chaos.New(chaos.Config{
		Seed:         chaosSeed(t),
		DropSendProb: 0.03,
		SeverProb:    0.05,
		DelayProb:    0.05,
		Delay:        200 * time.Microsecond,
		MaxFaults:    10,
	})
	net := h.trackers[0].Fabric().Network()
	net.SetFaultInjector(inj)
	defer net.SetFaultInjector(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	h.fetch(ctx)

	if inj.Faults() == 0 {
		t.Fatal("chaos injector never fired; the run proved nothing")
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.reconnects") < 1 {
		t.Fatalf("reconnects = %d, want >= 1 under seeded chaos (faults=%d)",
			c.Get("shuffle.rdma.reconnects"), inj.Faults())
	}
	if c.Get("shuffle.fetch.failures") != 0 {
		t.Fatalf("RecoverMap escalations = %d, want 0: the retry budget should absorb every injected fault",
			c.Get("shuffle.fetch.failures"))
	}
	drops, fails, severs, delays, refusals := inj.Stats()
	t.Logf("chaos: drops=%d fails=%d severs=%d delays=%d refusals=%d reconnects=%d retries=%d",
		drops, fails, severs, delays, refusals,
		c.Get("shuffle.rdma.reconnects"), c.Get("shuffle.rdma.retries"))
}

// TestCopierBlacklistSharedAcrossFetchers: a host that refuses every
// dial trips the shared per-device blacklist; a second fetcher on the
// same device observes a non-zero admission delay before its first dial.
func TestCopierBlacklistSharedAcrossFetchers(t *testing.T) {
	h := newRingHarness(t, stressConf(2), 2, 10)
	c := h.tt.Counters()
	ph := planeOf(h.tt).healthOf(h.tt.Host())
	trips := c.Counter("shuffle.rdma.blacklist.trips")
	for i := 0; i < blacklistAfter; i++ {
		ph.recordFailure(c)
	}
	if trips.Get() < 1 {
		t.Fatalf("blacklist.trips = %d after %d consecutive failures", trips.Get(), blacklistAfter)
	}
	// Another fetcher on the same device sees the embargo...
	if d := planeOf(h.tt).healthOf(h.tt.Host()).admissionDelay(); d <= 0 {
		t.Fatal("second fetcher saw no admission delay from the shared blacklist")
	}
	// ...and successes decay the penalty back down.
	before := ph.penaltyNow()
	ph.recordSuccess()
	if after := ph.penaltyNow(); after >= before {
		t.Fatalf("penalty did not decay on success: %v -> %v", before, after)
	}
}
