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
//
// An iterator can be used again after Close: Reset starts it over,
// keeping its gather arrays, its merger's heap and its spent list, so an
// engine that keeps one per fetch allocates none of them a second time.
type Iterator[B any] struct {
	ctx     context.Context
	cmp     kv.Comparator
	recycle func(B)
	window  func() func()
	set     chan sourceSet // capacity 1, one send per use: Gather never blocks on it

	// Gather's arrays: the sources as their maps complete, then in map
	// order. Both are cleared as soon as the merger holds the sources.
	got  []opened
	srcs []kv.Iterator

	m       kv.Merger
	started bool   // the merger has its sources
	end     func() // closes the merge window; nil before it opens and after
	// spent holds the chunk buffers the sources retired during the current
	// Next. Their records were all returned by earlier calls, so the
	// following call gives them back.
	spent []B
	err   error
	done  bool
}

type opened struct {
	mapID int
	src   kv.Iterator
}

type sourceSet struct {
	srcs []kv.Iterator
	err  error
}

// Reset readies a zero or closed iterator, keeping its arrays, to merge
// under cmp once Gather has its sources; the Gather of its previous use
// must have returned. The wait and every refill the sources make are
// expected to end when ctx does. recycle takes back retired chunk buffers
// (nil: they are left to the collector, for a consumer that keeps records
// past the following Next). window, when not nil, is called as the merge
// starts — sources in hand, priority queue about to be primed — and
// returns what to call when the stream ends for any reason.
func (it *Iterator[B]) Reset(ctx context.Context, cmp kv.Comparator, recycle func(B), window func() func()) {
	set := it.set
	if set == nil {
		set = make(chan sourceSet, 1)
	}
	*it = Iterator[B]{
		ctx: ctx, cmp: cmp, recycle: recycle, window: window, set: set,
		got: it.got[:0], srcs: it.srcs[:0], m: it.m, spent: it.spent[:0],
	}
}

// Gather is the body of the engine's event goroutine — the paper's Map
// Completion Fetcher: for every completed map it has the engine open a
// source (which issues the first-chunk request at once, overlapping
// shuffle with the map phase), and when the last of the maps events is in
// it hands the sources over in map order, so that records with equal keys
// come out by (map id, emission order) — or the error that kept the set
// from being assembled. Call it once per use.
func (it *Iterator[B]) Gather(events <-chan mapred.MapEvent, maps int, open func(mapred.MapEvent) (kv.Iterator, error)) {
	srcs, err := it.gather(events, maps, open)
	clear(it.got) // the sources are in srcs now, or given up
	it.got = it.got[:0]
	it.set <- sourceSet{srcs: srcs, err: err}
}

func (it *Iterator[B]) gather(events <-chan mapred.MapEvent, maps int, open func(mapred.MapEvent) (kv.Iterator, error)) ([]kv.Iterator, error) {
	it.got = slices.Grow(it.got[:0], maps)
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
			it.got = append(it.got, opened{ev.MapID, src})
		case <-it.ctx.Done():
			return nil, it.ctx.Err()
		}
	}
	if len(it.got) != maps {
		return nil, fmt.Errorf("shuffle: saw %d map events, want %d", len(it.got), maps)
	}
	slices.SortFunc(it.got, func(a, b opened) int { return a.mapID - b.mapID })
	it.srcs = slices.Grow(it.srcs[:0], len(it.got))
	for _, o := range it.got {
		it.srcs = append(it.srcs, o.src)
	}
	return it.srcs, nil
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
		it.m.Reset(it.cmp, s.srcs...)
		clear(s.srcs) // the merger holds them now
		it.started = true
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
	if !it.started && !it.start() {
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

// Close ends the stream wherever it stands and drops every reference the
// iterator holds to sources and chunk buffers: only its arrays are left,
// for Reset. The engine's Close calls it after the consumer's last Next
// and after Gather has returned.
func (it *Iterator[B]) Close() {
	it.finish(it.err)
	select {
	case s := <-it.set: // gathered, never started on
		clear(s.srcs)
	default:
	}
	it.m.Reset(nil)
}
