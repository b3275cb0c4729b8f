package core

import (
	"slices"
	"time"

	"rdmamr/internal/kv"
	"rdmamr/internal/obs"
)

// mergedStream is the reduce side Fetch returns, under both the OSU-IB
// and the Hadoop-A policy: a kv.Iterator over the merged stream of one
// reduce partition, the priority-queue merge over the fetch's refillable
// segments, run by whoever calls Next — the reduce function's own
// goroutine.
//
// The paper puts a FIFO, the DataToReduceQueue, between the merge and the
// reduce function so that shuffle, merge and reduce overlap (§III-B.4).
// Here the shuffle overlaps through the host loops and each segment's
// one-chunk look-ahead, and merge and reduce compete for the same cores,
// so the queue is a function call (DESIGN.md D17).
//
// The fetch's event loop gathers the sources while maps finish and hands
// them over; the first Next waits for that hand-off, and every Next after
// it is kv.Merger.Next. Next, Record, Err, retire and Close belong to one
// goroutine at a time.
//
// Records stay one behind: the record call n of Next returns is intact
// until call n + 2 starts, or until Close — call n + 1 may return false
// at end of stream, and the record before it is still whole. A drained
// chunk is retired during the call after its last record's and given back
// at the start of the call after that; the buffers the last call retired
// wait for Close. Only a stream that ends in an error gives back at once,
// for its consumer reads nothing more.
//
// A stream can be used again after Close: reset starts it over, keeping
// its source array, its merger's tree and its spent list, so the fetch
// arena that keeps one (D26) allocates none of them a second time.
type mergedStream struct {
	f   *fetcher   // the fetch it merges for; nil once closed
	set chan error // capacity 1, one send per use: the hand-over never blocks

	// srcs holds the source of each map by map id, filled by the event
	// loop as maps complete and cleared as soon as the merger holds them.
	srcs []kv.Iterator

	m       kv.Merger
	started bool // the merger has its sources
	// mergeStart is when the merge window opened: set only while the
	// fetch's record is on (D7) and the merge runs.
	mergeStart time.Time
	// spent holds the chunk buffers the sources retired during the current
	// Next. Their records were all returned by earlier calls, so the
	// following call gives them back, or Close after the last one.
	spent []payload
	err   error
	done  bool
}

// reset readies a zero or closed stream, keeping its arrays, to merge
// f's sources under f's comparator once they are handed over; the event
// loop of its previous use must have exited. The wait and every refill
// the sources make end when f.runCtx does.
func (s *mergedStream) reset(f *fetcher) {
	set := s.set
	if set == nil {
		set = make(chan error, 1)
	}
	*s = mergedStream{
		f: f, set: set, srcs: slices.Grow(s.srcs[:0], f.task.Job.NumMaps)[:f.task.Job.NumMaps],
		m: s.m, spent: s.spent[:0],
	}
}

// handOver gives the merge its sources, one a map in map order, so that
// records with equal keys come out by (map id, emission order) — or, when
// err is set, the error that kept the set from being assembled, which the
// first Next reports. Called once per use, by the event loop.
func (s *mergedStream) handOver(err error) {
	if err != nil {
		clear(s.srcs) // given up
	}
	s.set <- err
}

// retire takes a chunk buffer a source has drained. Called from inside the
// source's Next, which is inside this stream's: the buffer goes back to
// the node on the next call, on error or on Close, whichever comes first.
func (s *mergedStream) retire(pl payload) {
	s.spent = append(s.spent, pl)
}

func (s *mergedStream) release() {
	for i, pl := range s.spent {
		s.f.node.release(pl)
		s.spent[i] = payload{}
	}
	s.spent = s.spent[:0]
}

// finish ends the stream and closes the merge window. At a clean end the
// record before the last call is still the consumer's, so what that call
// retired waits for Close; after an error nothing is owed, and it goes
// back now.
func (s *mergedStream) finish(err error) {
	s.done, s.err = true, err
	if err != nil {
		s.release()
	}
	if !s.mergeStart.IsZero() {
		s.f.tr.Add(s.f.span(obs.KindMerge, s.mergeStart, time.Now()))
		s.mergeStart = time.Time{}
	}
}

// start waits for the sources and builds the priority queue over them.
// With the fetch's record on, it opens the merge window, which spans
// priority-queue priming (the first Next, once every map is in: "while
// receiving these key-value pairs from all map locations, a ReduceTask now
// merges all these data to build up a Priority Queue") through the last
// extracted record; profiling it against the shuffle window is what
// measures the paper's shuffle/merge overlap. The merge runs inside the
// reduce slot's goroutine but keeps its own trace lane, so the two spans
// read side by side.
func (s *mergedStream) start() bool {
	select {
	case err := <-s.set:
		if err != nil {
			s.finish(err)
			return false
		}
		if s.f.tr != nil {
			s.mergeStart = time.Now()
		}
		s.m.Reset(s.f.task.Job.Comparator, s.srcs...)
		clear(s.srcs) // the merger holds them now
		s.started = true
		return true
	case <-s.f.runCtx.Done():
		s.finish(s.f.runCtx.Err())
		return false
	}
}

// Next implements kv.Iterator. It blocks while maps are still running and
// whenever the segment it draws from is waiting for its next chunk.
func (s *mergedStream) Next() bool {
	if s.done {
		return false
	}
	if len(s.spent) > 0 {
		s.release()
	}
	if !s.started && !s.start() {
		return false
	}
	if s.m.Next() {
		return true
	}
	s.finish(s.m.Err())
	return false
}

// Record implements kv.Iterator: valid until the Next after the following
// one starts, or until Close.
func (s *mergedStream) Record() kv.Record { return s.m.Record() }

// Err implements kv.Iterator.
func (s *mergedStream) Err() error { return s.err }

// Close ends the stream wherever it stands and drops every reference it
// holds to sources, chunk buffers and the fetch: only its arrays are
// left, for reset. The fetcher's Close calls it after the consumer's last
// Next and after the event loop has exited.
func (s *mergedStream) Close() {
	if s.f == nil {
		return
	}
	s.finish(s.err)
	s.release()
	select {
	case <-s.set: // gathered, never started on
	default:
	}
	clear(s.srcs)
	s.m.Reset(nil)
	s.f = nil
}
