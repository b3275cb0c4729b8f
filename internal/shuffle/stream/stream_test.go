package stream

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// chunked is a test source: a sorted partition cut into chunks, each its
// own buffer, retired to the iterator when drained — the shape of an
// engine's segment. A nil chunk blocks until ctx ends, like a refill that
// never arrives; fail (when set) is reported at the end of the chunks.
type chunked struct {
	ctx     context.Context
	it      *Iterator[[]byte]
	chunks  [][]kv.Record
	bufs    [][]byte
	fail    error
	blocked chan struct{} // closed when a nil chunk is reached

	ci, ri int
	cur    kv.Record
	err    error
}

func (s *chunked) Next() bool {
	for {
		if s.ci == len(s.chunks) {
			s.err = s.fail
			return false
		}
		if s.chunks[s.ci] == nil {
			close(s.blocked)
			<-s.ctx.Done()
			s.err = s.ctx.Err()
			return false
		}
		if s.ri < len(s.chunks[s.ci]) {
			s.cur = s.chunks[s.ci][s.ri]
			s.ri++
			return true
		}
		s.it.Retire(s.bufs[s.ci])
		s.ci, s.ri = s.ci+1, 0
	}
}

func (s *chunked) Record() kv.Record { return s.cur }
func (s *chunked) Err() error        { return s.err }

// newIterator is a zero iterator Reset for one use, merging bytewise.
func newIterator(ctx context.Context, recycle func([]byte), window func() func()) *Iterator[[]byte] {
	it := new(Iterator[[]byte])
	it.Reset(ctx, nil, recycle, window)
	return it
}

// harness wires sources whose buffers are tagged "s<source>c<chunk>" and
// records every recycle in order.
type harness struct {
	it       *Iterator[[]byte]
	recycled []string
	srcs     []*chunked
}

func newHarness(ctx context.Context, recycle bool, window func() func(), parts ...[][]string) *harness {
	h := &harness{}
	var rf func([]byte)
	if recycle {
		rf = func(b []byte) { h.recycled = append(h.recycled, string(b)) }
	}
	h.it = newIterator(ctx, rf, window)
	for si, part := range parts {
		src := &chunked{ctx: ctx, it: h.it, blocked: make(chan struct{})}
		for ci, keys := range part {
			var recs []kv.Record
			if keys != nil {
				recs = []kv.Record{}
				for _, k := range keys {
					recs = append(recs, kv.Record{Key: []byte(k), Value: []byte(fmt.Sprintf("s%d", si))})
				}
			}
			src.chunks = append(src.chunks, recs)
			src.bufs = append(src.bufs, []byte(fmt.Sprintf("s%dc%d", si, ci)))
		}
		h.srcs = append(h.srcs, src)
	}
	return h
}

// deliver runs Gather over one event per source, last map first: the
// merge order must come from the map ids, not from arrival.
func (h *harness) deliver() {
	events := make(chan mapred.MapEvent, len(h.srcs))
	for m := len(h.srcs) - 1; m >= 0; m-- {
		events <- mapred.MapEvent{MapID: m}
	}
	close(events)
	h.it.Gather(events, len(h.srcs), func(ev mapred.MapEvent) (kv.Iterator, error) {
		return h.srcs[ev.MapID], nil
	})
}

func TestMergesInSourceOrder(t *testing.T) {
	h := newHarness(context.Background(), true, nil,
		[][]string{{"a", "c"}, {"c", "e"}},
		[][]string{{"b", "c"}, {"d"}},
	)
	h.deliver()
	var got string
	for h.it.Next() {
		r := h.it.Record()
		got += fmt.Sprintf("%s/%s ", r.Key, r.Value)
	}
	if err := h.it.Err(); err != nil {
		t.Fatal(err)
	}
	// Equal keys ("c") come out by source, then by position in the source.
	if want := "a/s0 b/s1 c/s0 c/s0 c/s1 d/s1 e/s0 "; got != want {
		t.Fatalf("merged %q, want %q", got, want)
	}
}

// TestSpentBufferRule pins when a retired buffer goes back: not while the
// call that retired it is returning (the record before that call's may be
// in it, and it is still the consumer's), by the end of the following
// call, and — for what the call that ends the stream retired, which holds
// the last record — at Close.
func TestSpentBufferRule(t *testing.T) {
	h := newHarness(context.Background(), true, nil, [][]string{{"a", "b"}, {"c"}})
	h.deliver()
	step := func(wantKey string, wantRecycled ...string) {
		t.Helper()
		ok := h.it.Next()
		if wantKey == "" {
			if ok {
				t.Fatalf("Next = true (%s), want end of stream", h.it.Record().Key)
			}
		} else if !ok || string(h.it.Record().Key) != wantKey {
			t.Fatalf("Next = %v %q, want %q", ok, h.it.Record().Key, wantKey)
		}
		if fmt.Sprint(h.recycled) != fmt.Sprint(wantRecycled) {
			t.Fatalf("after %q: recycled %v, want %v", wantKey, h.recycled, wantRecycled)
		}
	}
	step("a")
	step("b")
	step("c")        // call 3 retires s0c0 while refilling: still out
	step("", "s0c0") // call 4 gives it back and retires s0c1, which holds "c"
	if h.it.Next() {
		t.Fatal("Next after end of stream")
	}
	if len(h.recycled) != 1 {
		t.Fatalf("Next after end of stream recycled %v", h.recycled)
	}
	h.it.Close()
	if fmt.Sprint(h.recycled) != "[s0c0 s0c1]" {
		t.Fatalf("Close after end of stream: recycled %v, want [s0c0 s0c1]", h.recycled)
	}
	h.it.Close()
	if len(h.recycled) != 2 {
		t.Fatalf("second Close recycled again: %v", h.recycled)
	}
}

func TestErrorAndCloseReleaseSpent(t *testing.T) {
	boom := errors.New("boom")
	h := newHarness(context.Background(), true, nil, [][]string{{"a"}})
	h.srcs[0].fail = boom
	h.deliver()
	if !h.it.Next() {
		t.Fatal(h.it.Err())
	}
	if h.it.Next() || !errors.Is(h.it.Err(), boom) {
		t.Fatalf("Next after the failing refill: err %v, want %v", h.it.Err(), boom)
	}
	if fmt.Sprint(h.recycled) != "[s0c0]" {
		t.Fatalf("on error: recycled %v, want [s0c0]", h.recycled)
	}

	// Close in mid-stream, one retired buffer still held.
	h = newHarness(context.Background(), true, nil, [][]string{{"a"}, {"b", "c"}})
	h.deliver()
	h.it.Next()
	h.it.Next() // retires s0c0
	if len(h.recycled) != 0 {
		t.Fatalf("recycled %v before the following call", h.recycled)
	}
	h.it.Close()
	if fmt.Sprint(h.recycled) != "[s0c0]" {
		t.Fatalf("on Close: recycled %v, want [s0c0]", h.recycled)
	}
	if h.it.Next() || h.it.Err() != nil {
		t.Fatalf("Next after Close = true or err %v", h.it.Err())
	}
}

func TestRecyclingOffKeepsBuffers(t *testing.T) {
	h := newHarness(context.Background(), false, nil, [][]string{{"a"}, {"b"}})
	h.deliver()
	for h.it.Next() {
	}
	h.it.Close()
	if h.it.Err() != nil || len(h.it.spent) != 0 {
		t.Fatalf("err %v, %d buffers held with recycling off", h.it.Err(), len(h.it.spent))
	}
}

// TestGatherErrorsSurface: whatever keeps the source set from being
// assembled is what the first Next reports.
func TestGatherErrorsSurface(t *testing.T) {
	boom := errors.New("unknown host")
	events := func(n int) chan mapred.MapEvent {
		ch := make(chan mapred.MapEvent, n)
		for m := 0; m < n; m++ {
			ch <- mapred.MapEvent{MapID: m}
		}
		return ch
	}
	empty := func(mapred.MapEvent) (kv.Iterator, error) { return kv.NewSliceIterator(nil), nil }

	it := newIterator(context.Background(), nil, nil)
	it.Gather(events(2), 2, func(ev mapred.MapEvent) (kv.Iterator, error) { return nil, boom })
	if it.Next() || !errors.Is(it.Err(), boom) {
		t.Fatalf("open failed: err %v, want %v", it.Err(), boom)
	}

	it = newIterator(context.Background(), nil, nil)
	short := events(2)
	close(short)
	it.Gather(short, 3, empty)
	if it.Next() || it.Err() == nil {
		t.Fatal("two events for three maps did not fail the stream")
	}

	ctx, cancel := context.WithCancel(context.Background())
	it = newIterator(ctx, nil, nil)
	cancel()
	it.Gather(make(chan mapred.MapEvent), 1, empty) // the events never come
	if it.Next() || !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("cancelled while gathering: err %v, want context.Canceled", it.Err())
	}
}

// TestCancel covers the two places Next blocks — waiting for the sources
// and inside a source's refill — and Close before the first Next.
func TestCancel(t *testing.T) {
	t.Run("waiting for sources", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		it := newIterator(ctx, nil, nil)
		done := make(chan bool)
		go func() { done <- it.Next() }()
		cancel()
		expectFalse(t, done)
		if !errors.Is(it.Err(), context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", it.Err())
		}
	})
	t.Run("blocked on a refill", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		windows := 0
		h := newHarness(ctx, true, func() func() { windows++; return func() { windows-- } },
			[][]string{{"a"}, nil})
		h.deliver()
		if !h.it.Next() {
			t.Fatal(h.it.Err())
		}
		done := make(chan bool)
		go func() { done <- h.it.Next() }()
		<-h.srcs[0].blocked
		cancel()
		expectFalse(t, done)
		if !errors.Is(h.it.Err(), context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", h.it.Err())
		}
		if fmt.Sprint(h.recycled) != "[s0c0]" || windows != 0 {
			t.Fatalf("recycled %v (want [s0c0]), %d merge windows left open", h.recycled, windows)
		}
	})
	t.Run("Close before the first Next", func(t *testing.T) {
		opened := false
		it := newIterator(context.Background(), nil, func() func() { opened = true; return func() {} })
		none := make(chan mapred.MapEvent)
		close(none)
		it.Gather(none, 0, nil)
		it.Close()
		if it.Next() || it.Err() != nil || opened {
			t.Fatalf("after Close: err %v, window opened %v", it.Err(), opened)
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

// TestWindowSpansTheMerge: the window opens once, when the sources are in
// hand, and closes once, at end of stream.
func TestWindowSpansTheMerge(t *testing.T) {
	var log []string
	h := newHarness(context.Background(), true, func() func() {
		log = append(log, "open")
		return func() { log = append(log, "close") }
	}, [][]string{{"a", "b"}})
	h.deliver()
	for h.it.Next() {
		log = append(log, string(h.it.Record().Key))
	}
	h.it.Close()
	if got, want := fmt.Sprint(log), "[open a b close]"; got != want {
		t.Fatalf("window log %s, want %s", got, want)
	}
}

// TestResetAfterClose: an iterator closed at any point — drained, or
// gathered and never started — starts over after Reset and merges new
// sources as a new one would, holding no source of its previous use in its
// gather arrays or its set, and nothing of the engine that used it: no
// context, comparator, recycle or window func.
func TestResetAfterClose(t *testing.T) {
	h := newHarness(context.Background(), true, nil, [][]string{{"a", "c"}}, [][]string{{"b"}})
	h.deliver()
	for h.it.Next() {
	}
	h.it.Close()
	cleared := func(when string) {
		t.Helper()
		for _, o := range h.it.got[:cap(h.it.got)] {
			if o.src != nil {
				t.Fatalf("%s: a gathered source survived", when)
			}
		}
		for _, src := range h.it.srcs[:cap(h.it.srcs)] {
			if src != nil {
				t.Fatalf("%s: a source survived", when)
			}
		}
		if len(h.it.set) != 0 {
			t.Fatalf("%s: a gathered set survived", when)
		}
		if h.it.ctx != nil || h.it.cmp != nil || h.it.recycle != nil || h.it.window != nil {
			t.Fatalf("%s: the closed iterator still holds its engine's context, comparator, recycle or window", when)
		}
	}
	cleared("drained")

	// Gathered, then closed before the first Next: the same iterator
	// takes a new harness's sources.
	it := h.it
	h = newHarness(context.Background(), false, nil, [][]string{{"x"}}, [][]string{{"w", "y"}})
	it.Reset(context.Background(), kv.BytesComparator, func([]byte) {}, func() func() { return func() {} })
	h.it = it
	for _, src := range h.srcs {
		src.it = it
	}
	h.deliver()
	h.it.Close()
	cleared("gathered, never started")

	h.it.Reset(context.Background(), nil, nil, nil)
	h.srcs[0].ci, h.srcs[1].ci = 0, 0
	h.deliver()
	var got string
	for h.it.Next() {
		got += string(h.it.Record().Key)
	}
	if err := h.it.Err(); err != nil || got != "wxy" {
		t.Fatalf("merged %q (%v) after Reset, want wxy", got, err)
	}
}
