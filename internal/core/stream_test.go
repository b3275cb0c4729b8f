package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/obs"
)

// chunked is a test source: a sorted partition cut into chunks, each its
// own heap chunk buffer tagged "s<source>c<chunk>", retired to the stream
// when drained — the shape of a segment. A nil chunk blocks until ctx
// ends, like a refill that never arrives; fail (when set) is reported at
// the end of the chunks.
type chunked struct {
	ctx     context.Context
	s       *mergedStream
	chunks  [][]kv.Record
	bufs    []payload
	fail    error
	blocked chan struct{} // closed when a nil chunk is reached

	ci, ri int
	cur    kv.Record
	err    error
}

func (c *chunked) Next() bool {
	for {
		if c.ci == len(c.chunks) {
			c.err = c.fail
			return false
		}
		if c.chunks[c.ci] == nil {
			close(c.blocked)
			<-c.ctx.Done()
			c.err = c.ctx.Err()
			return false
		}
		if c.ri < len(c.chunks[c.ci]) {
			c.cur = c.chunks[c.ci][c.ri]
			c.ri++
			return true
		}
		c.s.retire(c.bufs[c.ci])
		c.ci, c.ri = c.ci+1, 0
	}
}

func (c *chunked) Record() kv.Record { return c.cur }
func (c *chunked) Err() error        { return c.err }

// streamFetcher is the part of a fetcher over maps maps that its stream
// reads — the fetch context, the comparator (nil: byte order), the node
// its chunk buffers go back to and, when tr is set, the job's record —
// with a stream reset for one use.
func streamFetcher(ctx context.Context, maps int, tr *obs.JobTrace) *fetcher {
	f := &fetcher{runCtx: ctx, node: new(fetchNode), tr: tr, it: new(mergedStream)}
	f.task.Job.NumMaps = maps
	f.task.Local = new(mapred.TaskTracker) // the spans' node
	f.it.reset(f)
	return f
}

// streamHarness wires sources whose buffers are tagged by source and
// chunk to a fetcher's stream.
type streamHarness struct {
	f    *fetcher
	s    *mergedStream
	srcs []*chunked
}

func newStreamHarness(ctx context.Context, tr *obs.JobTrace, parts ...[][]string) *streamHarness {
	h := &streamHarness{f: streamFetcher(ctx, len(parts), tr)}
	h.s = h.f.it
	for si, part := range parts {
		src := &chunked{ctx: ctx, s: h.s, blocked: make(chan struct{})}
		for ci, keys := range part {
			var recs []kv.Record
			if keys != nil {
				recs = []kv.Record{}
				for _, k := range keys {
					recs = append(recs, kv.Record{Key: []byte(k), Value: []byte(fmt.Sprintf("s%d", si))})
				}
			}
			src.chunks = append(src.chunks, recs)
			tag := fmt.Sprintf("s%dc%d", si, ci)
			buf := make([]byte, payloadCap(len(tag)))
			src.bufs = append(src.bufs, payload{buf: buf[:copy(buf, tag)]})
		}
		h.srcs = append(h.srcs, src)
	}
	return h
}

// deliver hands the stream one source per map, last map first, as the
// event loop does: each under its map id, whatever the arrival order.
func (h *streamHarness) deliver() {
	for m := len(h.srcs) - 1; m >= 0; m-- {
		h.s.srcs[m] = h.srcs[m]
	}
	h.s.handOver(nil)
}

// recycled lists the tags of the chunk buffers given back to the node's
// free list, in the order they went back.
func (h *streamHarness) recycled() []string {
	var tags []string
	for _, class := range h.f.node.heap.free {
		for _, buf := range class {
			tags = append(tags, string(buf[:bytes.IndexByte(buf, 0)]))
		}
	}
	return tags
}

// mergeSpans returns the merge windows tr holds.
func mergeSpans(tr *obs.JobTrace) []obs.Span {
	spans, _ := tr.Spans()
	var merges []obs.Span
	for _, sp := range spans {
		if sp.Kind == obs.KindMerge {
			merges = append(merges, sp)
		}
	}
	return merges
}

func TestStreamMergesInSourceOrder(t *testing.T) {
	h := newStreamHarness(context.Background(), nil,
		[][]string{{"a", "c"}, {"c", "e"}},
		[][]string{{"b", "c"}, {"d"}},
	)
	h.deliver()
	var got string
	for h.s.Next() {
		r := h.s.Record()
		got += fmt.Sprintf("%s/%s ", r.Key, r.Value)
	}
	if err := h.s.Err(); err != nil {
		t.Fatal(err)
	}
	// Equal keys ("c") come out by source, then by position in the source.
	if want := "a/s0 b/s1 c/s0 c/s0 c/s1 d/s1 e/s0 "; got != want {
		t.Fatalf("merged %q, want %q", got, want)
	}
}

// TestStreamSpentBufferRule pins when a retired buffer goes back: not
// while the call that retired it is returning (the record before that
// call's may be in it, and it is still the consumer's), by the end of the
// following call, and — for what the call that ends the stream retired,
// which holds the last record — at Close.
func TestStreamSpentBufferRule(t *testing.T) {
	h := newStreamHarness(context.Background(), nil, [][]string{{"a", "b"}, {"c"}})
	h.deliver()
	step := func(wantKey string, wantRecycled ...string) {
		t.Helper()
		ok := h.s.Next()
		if wantKey == "" {
			if ok {
				t.Fatalf("Next = true (%s), want end of stream", h.s.Record().Key)
			}
		} else if !ok || string(h.s.Record().Key) != wantKey {
			t.Fatalf("Next = %v %q, want %q", ok, h.s.Record().Key, wantKey)
		}
		if fmt.Sprint(h.recycled()) != fmt.Sprint(wantRecycled) {
			t.Fatalf("after %q: recycled %v, want %v", wantKey, h.recycled(), wantRecycled)
		}
	}
	step("a")
	step("b")
	step("c")        // call 3 retires s0c0 while refilling: still out
	step("", "s0c0") // call 4 gives it back and retires s0c1, which holds "c"
	if h.s.Next() {
		t.Fatal("Next after end of stream")
	}
	if len(h.recycled()) != 1 {
		t.Fatalf("Next after end of stream recycled %v", h.recycled())
	}
	h.s.Close()
	if fmt.Sprint(h.recycled()) != "[s0c0 s0c1]" {
		t.Fatalf("Close after end of stream: recycled %v, want [s0c0 s0c1]", h.recycled())
	}
	h.s.Close()
	if len(h.recycled()) != 2 {
		t.Fatalf("second Close recycled again: %v", h.recycled())
	}
}

func TestStreamErrorAndCloseReleaseSpent(t *testing.T) {
	boom := errors.New("boom")
	h := newStreamHarness(context.Background(), nil, [][]string{{"a"}})
	h.srcs[0].fail = boom
	h.deliver()
	if !h.s.Next() {
		t.Fatal(h.s.Err())
	}
	if h.s.Next() || !errors.Is(h.s.Err(), boom) {
		t.Fatalf("Next after the failing refill: err %v, want %v", h.s.Err(), boom)
	}
	if fmt.Sprint(h.recycled()) != "[s0c0]" {
		t.Fatalf("on error: recycled %v, want [s0c0]", h.recycled())
	}

	// Close in mid-stream, one retired buffer still held.
	h = newStreamHarness(context.Background(), nil, [][]string{{"a"}, {"b", "c"}})
	h.deliver()
	h.s.Next()
	h.s.Next() // retires s0c0
	if len(h.recycled()) != 0 {
		t.Fatalf("recycled %v before the following call", h.recycled())
	}
	h.s.Close()
	if fmt.Sprint(h.recycled()) != "[s0c0]" {
		t.Fatalf("on Close: recycled %v, want [s0c0]", h.recycled())
	}
	if h.s.Next() || h.s.Err() != nil {
		t.Fatalf("Next after Close = true or err %v", h.s.Err())
	}
}

// TestStreamGatherErrorsSurface: whatever keeps the fetch's event loop
// from assembling the source set is what the first Next reports.
func TestStreamGatherErrorsSurface(t *testing.T) {
	events := func(n int, host string) chan mapred.MapEvent {
		ch := make(chan mapred.MapEvent, n)
		for m := 0; m < n; m++ {
			ch <- mapred.MapEvent{MapID: m, Host: host}
		}
		return ch
	}
	// gather runs a fetch's event loop over one host, "h", to its
	// hand-over.
	gather := func(ctx context.Context, ev chan mapred.MapEvent, maps int) *mergedStream {
		f := streamFetcher(ctx, maps, nil)
		f.task.Events = ev
		f.segs = make([]segment, 0, maps)
		f.peers = map[string]*hostPeer{"h": {wake: make(chan struct{}, 1)}}
		f.wg.Add(1)
		f.eventLoop(nil, func() {})
		return f.it
	}

	s := gather(context.Background(), events(2, "nowhere"), 2)
	if s.Next() || s.Err() == nil || !strings.Contains(s.Err().Error(), "unknown host") {
		t.Fatalf("open failed: err %v, want an unknown host", s.Err())
	}

	short := events(2, "h")
	close(short)
	s = gather(context.Background(), short, 3)
	if s.Next() || s.Err() == nil {
		t.Fatal("two events for three maps did not fail the stream")
	}

	twice := make(chan mapred.MapEvent, 2)
	twice <- mapred.MapEvent{MapID: 1, Host: "h"}
	twice <- mapred.MapEvent{MapID: 1, Host: "h"}
	s = gather(context.Background(), twice, 2)
	if s.Next() || s.Err() == nil || !strings.Contains(s.Err().Error(), "seen twice") {
		t.Fatalf("one map's event twice: err %v", s.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s = gather(ctx, make(chan mapred.MapEvent), 1) // the events never come
	if s.Next() || !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("cancelled while gathering: err %v, want context.Canceled", s.Err())
	}
}

// TestStreamCancel covers the two places Next blocks — waiting for the
// sources and inside a source's refill — and Close before the first Next.
func TestStreamCancel(t *testing.T) {
	t.Run("waiting for sources", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		s := streamFetcher(ctx, 1, nil).it
		done := make(chan bool)
		go func() { done <- s.Next() }()
		cancel()
		expectFalse(t, done)
		if !errors.Is(s.Err(), context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", s.Err())
		}
	})
	t.Run("blocked on a refill", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		tr := obs.NewJobTrace("job")
		h := newStreamHarness(ctx, tr, [][]string{{"a"}, nil})
		h.deliver()
		if !h.s.Next() {
			t.Fatal(h.s.Err())
		}
		done := make(chan bool)
		go func() { done <- h.s.Next() }()
		<-h.srcs[0].blocked
		cancel()
		expectFalse(t, done)
		if !errors.Is(h.s.Err(), context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", h.s.Err())
		}
		if merges := mergeSpans(tr); fmt.Sprint(h.recycled()) != "[s0c0]" || len(merges) != 1 {
			t.Fatalf("recycled %v (want [s0c0]), %d merge windows closed (want 1)", h.recycled(), len(merges))
		}
	})
	t.Run("Close before the first Next", func(t *testing.T) {
		tr := obs.NewJobTrace("job")
		h := newStreamHarness(context.Background(), tr)
		h.deliver()
		h.s.Close()
		if h.s.Next() || h.s.Err() != nil || len(mergeSpans(tr)) != 0 {
			t.Fatalf("after Close: err %v, merge window opened %v", h.s.Err(), len(mergeSpans(tr)) != 0)
		}
	})
}

func expectFalse(t *testing.T, done <-chan bool) {
	t.Helper()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next = true after cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next still blocked 10 s after cancellation")
	}
}

// TestStreamWindowSpansTheMerge: the merge window opens once, when the
// sources are in hand, and closes once, at end of stream.
func TestStreamWindowSpansTheMerge(t *testing.T) {
	tr := obs.NewJobTrace("job")
	h := newStreamHarness(context.Background(), tr, [][]string{{"a", "b"}})
	h.deliver()
	before := time.Now()
	for h.s.Next() {
		if n := len(mergeSpans(tr)); n != 0 {
			t.Fatalf("%d merge windows closed at record %q", n, h.s.Record().Key)
		}
	}
	after := time.Now()
	h.s.Close()
	merges := mergeSpans(tr)
	if len(merges) != 1 {
		t.Fatalf("%d merge windows, want 1", len(merges))
	}
	if sp := merges[0]; sp.Start.Before(before) || sp.End.After(after) || sp.End.Before(sp.Start) {
		t.Fatalf("merge window %v–%v outside the merge's %v–%v", sp.Start, sp.End, before, after)
	}
}

// TestStreamResetAfterClose: a stream closed at any point — drained, or
// gathered and never started — starts over after reset and merges new
// sources as a new one would, holding no source of its previous use in
// its source array, and not the fetch that used it.
func TestStreamResetAfterClose(t *testing.T) {
	h := newStreamHarness(context.Background(), nil, [][]string{{"a", "c"}}, [][]string{{"b"}})
	h.deliver()
	for h.s.Next() {
	}
	h.s.Close()
	cleared := func(when string) {
		t.Helper()
		for _, src := range h.s.srcs[:cap(h.s.srcs)] {
			if src != nil {
				t.Fatalf("%s: a source survived", when)
			}
		}
		if len(h.s.set) != 0 {
			t.Fatalf("%s: a hand-over survived", when)
		}
		if h.s.f != nil {
			t.Fatalf("%s: the closed stream still holds its fetch", when)
		}
	}
	cleared("drained")

	// Gathered, then closed before the first Next: the same stream takes a
	// new harness's sources.
	s := h.s
	h = newStreamHarness(context.Background(), nil, [][]string{{"x"}}, [][]string{{"w", "y"}})
	h.f.task.Job.Comparator = kv.BytesComparator
	h.f.it, h.s = s, s
	s.reset(h.f)
	for _, src := range h.srcs {
		src.s = s
	}
	h.deliver()
	h.s.Close()
	cleared("gathered, never started")

	h.s.reset(h.f)
	h.srcs[0].ci, h.srcs[1].ci = 0, 0
	h.deliver()
	var got string
	for h.s.Next() {
		got += string(h.s.Record().Key)
	}
	if err := h.s.Err(); err != nil || got != "wxy" {
		t.Fatalf("merged %q (%v) after reset, want wxy", got, err)
	}
}

// TestFetchRunsOneEventGoroutine: a fetch over N hosts, with a loss feed
// attached, whose map events have not come yet runs exactly N + 1
// goroutines: a supervisor per host, idle since dialing is lazy, and the
// event loop, which takes the map events and the loss notices both. They
// are counted by the stacks Fetch started, which other tests' goroutines
// winding down cannot blur. Close brings the count back to where it was.
// A loss notice that comes after the last map event still reaches the
// named host's peer.
func TestFetchRunsOneEventGoroutine(t *testing.T) {
	const nodes = 3
	h := newMultiHostHarness(t, stressConf(2), nodes, nodes, 50)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.fetch(ctx) // makes the node's connection plane
	waitFor(t, func() bool { s, o := hostGoroutines(); return s+o == 0 })
	baseline := runtime.NumGoroutine()

	hosts := make([]string, nodes)
	for i, tt := range h.trackers {
		hosts[i] = tt.Host()
	}
	losses := mapred.NewTrackerLossFeed()
	events := make(chan mapred.MapEvent, nodes)
	local := h.trackers[0]
	f := newFetcher(mapred.ReduceTaskInfo{
		Job: h.job, ReduceID: 0, Events: events,
		Local: local, Hosts: hosts, Losses: losses,
	})
	defer f.Close()
	it, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var started []string
	for _, g := range goroutineStacks() {
		if strings.Contains(g, fetcherCreated+"Fetch") {
			started = append(started, g)
		}
	}
	if len(started) != nodes+1 {
		t.Fatalf("a fetch over %d hosts waiting for its map events runs %d goroutines, want %d:\n\n%s",
			nodes, len(started), nodes+1, strings.Join(started, "\n\n"))
	}

	for m := 0; m < h.numMaps; m++ {
		events <- mapred.MapEvent{MapID: m, Host: hosts[m%nodes]}
	}
	close(events)
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != len(h.expected) {
		t.Fatalf("merged %d records (%v), want %d", n, err, len(h.expected))
	}
	notices := local.Counters().Counter("shuffle.rdma.lost.notices").Get()
	lost := f.peers[hosts[2]]
	losses.Announce(hosts[2])
	select {
	case <-lost.lostCh:
	case <-time.After(10 * time.Second):
		t.Fatal("a loss notice after the last map event never reached the host's peer")
	}
	waitFor(t, func() bool { return local.Counters().Counter("shuffle.rdma.lost.notices").Get()-notices == 1 })
	f.Close()
	settleGoroutines(t, baseline, "after Close")
}
