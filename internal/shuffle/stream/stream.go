// Package stream is the reduce side the RDMA engine (internal/core, under
// both its OSU-IB and Hadoop-A policies) returns from Fetch: the
// priority-queue merge over its refillable segments, run by whoever calls
// Next — the reduce function's own goroutine.
//
// The paper puts a FIFO, the DataToReduceQueue, between the merge and the
// reduce function so that shuffle, merge and reduce overlap (§III-B.4).
// Here the shuffle overlaps through the engine's pumps and each segment's
// one-chunk look-ahead, and merge and reduce compete for the same cores,
// so the queue is a function call (DESIGN.md D17).
package stream

import (
	"context"
	"fmt"
	"slices"

	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// Iterator is a kv.Iterator over the merged stream of one reduce
// partition. The engine's event goroutine runs Gather, which assembles the
// sources while maps finish; the first Next waits for that hand-off, and
// every Next after it is kv.Merger.Next. Next, Record, Err, Retire and
// Close belong to one goroutine at a time. B is the engine's handle on one
// chunk buffer — what a source retires and recycle takes back.
type Iterator[B any] struct {
	ctx     context.Context
	cmp     kv.Comparator
	recycle func(B)
	window  func() func()
	set     chan sourceSet // capacity 1, one send: Gather never blocks on it

	m   *kv.Merger
	end func() // closes the merge window; nil before it opens and after
	// spent holds the chunk buffers the sources retired during the current
	// Next. Their records were all returned by earlier calls, so the
	// following call gives them back.
	spent []B
	err   error
	done  bool
}

type sourceSet struct {
	srcs []kv.Iterator
	err  error
}

// New returns an iterator that merges under cmp once Gather has its
// sources; the wait and every refill the sources make are expected to
// end when ctx does. recycle takes back retired chunk buffers (nil: they
// are left to the collector, for a consumer that keeps records past the
// following Next). window, when not nil, is called as the merge starts —
// sources in hand, priority queue about to be primed — and returns what to
// call when the stream ends for any reason.
func New[B any](ctx context.Context, cmp kv.Comparator, recycle func(B), window func() func()) *Iterator[B] {
	return &Iterator[B]{ctx: ctx, cmp: cmp, recycle: recycle, window: window, set: make(chan sourceSet, 1)}
}

// Gather is the body of the engine's event goroutine — the paper's Map
// Completion Fetcher: for every completed map it has the engine open a
// source (which issues the first-chunk request at once, overlapping
// shuffle with the map phase), and when the last of the maps events is in
// it hands the sources over in map order, so that records with equal keys
// come out by (map id, emission order) — or the error that kept the set
// from being assembled. Call it once.
func (it *Iterator[B]) Gather(events <-chan mapred.MapEvent, maps int, open func(mapred.MapEvent) (kv.Iterator, error)) {
	srcs, err := it.gather(events, maps, open)
	it.set <- sourceSet{srcs: srcs, err: err}
}

func (it *Iterator[B]) gather(events <-chan mapred.MapEvent, maps int, open func(mapred.MapEvent) (kv.Iterator, error)) ([]kv.Iterator, error) {
	type opened struct {
		mapID int
		src   kv.Iterator
	}
	got := make([]opened, 0, maps)
collect:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				break collect
			}
			src, err := open(ev)
			if err != nil {
				return nil, err
			}
			got = append(got, opened{ev.MapID, src})
		case <-it.ctx.Done():
			return nil, it.ctx.Err()
		}
	}
	if len(got) != maps {
		return nil, fmt.Errorf("shuffle: saw %d map events, want %d", len(got), maps)
	}
	slices.SortFunc(got, func(a, b opened) int { return a.mapID - b.mapID })
	srcs := make([]kv.Iterator, len(got))
	for i, o := range got {
		srcs[i] = o.src
	}
	return srcs, nil
}

// Retire takes a chunk buffer a source has drained. Called from inside the
// source's Next, which is inside this iterator's: the buffer goes back to
// the pool on the next call, at end of stream, on error or on Close,
// whichever comes first.
func (it *Iterator[B]) Retire(buf B) {
	if it.recycle != nil {
		it.spent = append(it.spent, buf)
	}
}

func (it *Iterator[B]) release() {
	var none B
	for i, buf := range it.spent {
		it.recycle(buf)
		it.spent[i] = none
	}
	it.spent = it.spent[:0]
}

// finish ends the stream: nothing returned so far is still owed to the
// consumer, so the retired buffers go back and the merge window closes.
func (it *Iterator[B]) finish(err error) {
	it.done, it.err = true, err
	it.release()
	if it.end != nil {
		it.end()
		it.end = nil
	}
}

// start waits for the sources and builds the priority queue over them.
func (it *Iterator[B]) start() bool {
	select {
	case s := <-it.set:
		if s.err != nil {
			it.finish(s.err)
			return false
		}
		if it.window != nil {
			it.end = it.window()
		}
		it.m = kv.NewMerger(it.cmp, s.srcs...)
		return true
	case <-it.ctx.Done():
		it.finish(it.ctx.Err())
		return false
	}
}

// Next implements kv.Iterator. It blocks while maps are still running and
// whenever the segment it draws from is waiting for its next chunk.
func (it *Iterator[B]) Next() bool {
	if it.done {
		return false
	}
	if len(it.spent) > 0 {
		it.release()
	}
	if it.m == nil && !it.start() {
		return false
	}
	if it.m.Next() {
		return true
	}
	it.finish(it.m.Err())
	return false
}

// Record implements kv.Iterator: valid until the following Next or Close.
func (it *Iterator[B]) Record() kv.Record { return it.m.Record() }

// Err implements kv.Iterator.
func (it *Iterator[B]) Err() error { return it.err }

// Close ends the stream wherever it stands. The engine's Close calls it
// after the consumer's last Next.
func (it *Iterator[B]) Close() { it.finish(it.err) }
