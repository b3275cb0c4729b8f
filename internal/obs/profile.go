package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Phase names of a Report's timelines: the span kinds that open windows
// (phaseOf).
const (
	PhaseMap     = "map"
	PhaseShuffle = "shuffle"
	PhaseMerge   = "merge"
	PhaseReduce  = "reduce"
)

// Interval is one [start, end] segment on the report timeline, in
// milliseconds from the job's start.
type Interval struct {
	Key     int     `json:"key"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// PhaseTimeline is every window of one phase plus the length of their
// union (the phase's distinct wall-clock footprint).
type PhaseTimeline struct {
	Phase   string     `json:"phase"`
	Windows []Interval `json:"windows"`
	UnionMs float64    `json:"union_ms"`
}

// Overlap reports how long two phases ran concurrently (length of the
// intersection of their window unions).
type Overlap struct {
	A  string  `json:"a"`
	B  string  `json:"b"`
	Ms float64 `json:"ms"`
}

// HostStats summarizes fetch latency against one remote TaskTracker.
type HostStats struct {
	Host    string  `json:"host"`
	Fetches int64   `json:"fetches"`
	Bytes   int64   `json:"bytes"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
	P95Us   float64 `json:"p95_us"`
	P99Us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
}

// ReduceTTFB is one reduce task's time-to-first-byte: from the opening
// of its shuffle window to its first delivered chunk.
type ReduceTTFB struct {
	Reduce int     `json:"reduce"`
	Ms     float64 `json:"ms"`
}

// SpanOut is a fetch span rendered for the report: its life split into
// the queue wait (enqueue → sent, slot wait included and also shown
// alone), the round trip (sent → received) and the delivery wait
// (received → the merge's pickup).
type SpanOut struct {
	CorrID    string  `json:"corr_id"`
	Host      string  `json:"host"`
	Bytes     int     `json:"bytes"`
	StartMs   float64 `json:"start_ms"`
	QueueUs   float64 `json:"queue_us"`
	SlotUs    float64 `json:"slot_us"`
	RDMAUs    float64 `json:"rdma_us"`
	DeliverUs float64 `json:"deliver_us"`
	TotalUs   float64 `json:"total_us"`
}

// Report is the per-job shuffle profile, the record's profile view
// (JobTrace.Report), serializable as JSON and renderable as text (Text).
// It is a value snapshot: taking it does not stop the record.
type Report struct {
	JobID      string  `json:"job_id"`
	DurationMs float64 `json:"duration_ms"`

	TTFBMs       float64      `json:"ttfb_ms"` // earliest first byte across reduces
	ReduceTTFB   []ReduceTTFB `json:"reduce_ttfb"`
	Hosts        []HostStats  `json:"hosts"`
	SlotPeak     int64        `json:"slot_occupancy_peak"`
	MergeStallMs float64      `json:"merge_stall_ms"`
	Fetches      int64        `json:"fetches"`

	Phases   []PhaseTimeline `json:"phases"`
	Overlaps []Overlap       `json:"overlaps"`

	Spans        []SpanOut `json:"spans"`
	SpansDropped int64     `json:"spans_dropped"`
}

// phaseOf names the profile phase a span kind's windows belong to ("" for
// kinds that open none).
func phaseOf(k SpanKind) string {
	switch k {
	case KindMap:
		return PhaseMap
	case KindShuffle, KindFetch:
		return PhaseShuffle
	case KindMerge:
		return PhaseMerge
	case KindApply:
		return PhaseReduce
	}
	return ""
}

// Report computes the profile view of the record as of now. Nil
// receiver → nil.
func (t *JobTrace) Report() *Report {
	if t == nil {
		return nil
	}
	return t.reportAt(time.Now())
}

// reportAt derives every Report field from the spans alone:
//   - a phase's window per task id spans every attempt's span of that
//     phase (map, merge, apply), and overlaps intersect the phases'
//     window unions; a shuffle window opens at the fetcher's shuffle
//     span and each delivery (a fetch span's End) extends it;
//   - per-host count, bytes and exact latency percentiles come from the
//     fetch spans, each timed enqueue → delivery;
//   - a reduce's TTFB is its first delivery minus its shuffle window's
//     open (the fetcher's Fetch call);
//   - merge stall is the sum of the fetches' merge waits;
//   - the slot peak is the most [sent, received) intervals open at once
//     on one (reduce attempt, host) connection.
func (t *JobTrace) reportAt(now time.Time) *Report {
	spans, dropped := t.Spans()
	ms := func(at time.Time) float64 { return float64(at.Sub(t.start)) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	rep := &Report{JobID: t.jobID, DurationMs: ms(now), SpansDropped: dropped}

	type windowKey struct {
		phase string
		task  int32
	}
	type window struct{ start, end time.Time }
	type conn struct {
		reduce, attempt int32
		peer            string
	}
	type edge struct {
		at    time.Time
		delta int64
	}
	windows := map[windowKey]window{}
	hosts := map[string][]time.Duration{}
	hostBytes := map[string]int64{}
	firstByte := map[int32]time.Time{}
	slots := map[conn][]edge{}
	var fetches []*Span
	var stall time.Duration
	for i := range spans {
		sp := &spans[i]
		if phase := phaseOf(sp.Kind); phase != "" {
			from := sp.Start
			if sp.Kind == KindFetch {
				from = sp.End
			}
			k := windowKey{phase, sp.Task}
			w, ok := windows[k]
			if !ok || from.Before(w.start) {
				w.start = from
			}
			if !ok || sp.End.After(w.end) {
				w.end = sp.End
			}
			windows[k] = w
		}
		if sp.Kind != KindFetch {
			continue
		}
		fetches = append(fetches, sp)
		hosts[sp.Peer] = append(hosts[sp.Peer], max(sp.End.Sub(sp.Start), 0))
		hostBytes[sp.Peer] += int64(sp.Bytes)
		if fb, ok := firstByte[sp.Task]; !ok || sp.End.Before(fb) {
			firstByte[sp.Task] = sp.End
		}
		stall += sp.MergeWait
		c := conn{sp.Task, sp.Attempt, sp.Peer}
		slots[c] = append(slots[c], edge{sp.Sent, 1}, edge{sp.Received, -1})
	}
	rep.Fetches = int64(len(fetches))
	rep.MergeStallMs = float64(stall) / float64(time.Millisecond)
	for _, edges := range slots {
		// Half-open intervals: at one instant a slot frees before the
		// next is claimed.
		sort.Slice(edges, func(i, j int) bool {
			if !edges[i].at.Equal(edges[j].at) {
				return edges[i].at.Before(edges[j].at)
			}
			return edges[i].delta < edges[j].delta
		})
		var open int64
		for _, e := range edges {
			open += e.delta
			rep.SlotPeak = max(rep.SlotPeak, open)
		}
	}

	// Phase timelines and overlap from window unions.
	perPhase := map[string][]Interval{}
	for k, w := range windows {
		perPhase[k.phase] = append(perPhase[k.phase], Interval{Key: int(k.task), StartMs: ms(w.start), EndMs: ms(w.end)})
	}
	phaseNames := make([]string, 0, len(perPhase))
	for name := range perPhase {
		phaseNames = append(phaseNames, name)
	}
	sort.Strings(phaseNames)
	unions := map[string][]Interval{}
	for _, name := range phaseNames {
		ivs := perPhase[name]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].StartMs != ivs[j].StartMs {
				return ivs[i].StartMs < ivs[j].StartMs
			}
			return ivs[i].Key < ivs[j].Key
		})
		u := unionIntervals(ivs)
		unions[name] = u
		rep.Phases = append(rep.Phases, PhaseTimeline{Phase: name, Windows: ivs, UnionMs: intervalsLen(u)})
	}
	pairs := [][2]string{
		{PhaseMap, PhaseShuffle},
		{PhaseShuffle, PhaseMerge},
		{PhaseShuffle, PhaseReduce},
		{PhaseMerge, PhaseReduce},
	}
	for _, pr := range pairs {
		ua, oka := unions[pr[0]]
		ub, okb := unions[pr[1]]
		if !oka || !okb {
			continue
		}
		rep.Overlaps = append(rep.Overlaps, Overlap{A: pr[0], B: pr[1], Ms: intersectLen(ua, ub)})
	}

	// TTFB per reduce: first byte minus the reduce's shuffle-window open.
	reduces := make([]int32, 0, len(firstByte))
	for r := range firstByte {
		reduces = append(reduces, r)
	}
	slices.Sort(reduces)
	for _, r := range reduces {
		open, ok := windows[windowKey{PhaseShuffle, r}]
		if !ok {
			continue
		}
		v := float64(max(firstByte[r].Sub(open.start), 0)) / float64(time.Millisecond)
		if len(rep.ReduceTTFB) == 0 || v < rep.TTFBMs {
			rep.TTFBMs = v
		}
		rep.ReduceTTFB = append(rep.ReduceTTFB, ReduceTTFB{Reduce: int(r), Ms: v})
	}

	// Per-host latency percentiles, exact: the report holds every fetch
	// span, so it takes them from the sorted durations, by the rank rule
	// of Histogram.Snapshot.
	hostNames := make([]string, 0, len(hosts))
	for h := range hosts {
		hostNames = append(hostNames, h)
	}
	sort.Strings(hostNames)
	for _, h := range hostNames {
		ds := hosts[h]
		slices.Sort(ds)
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		n := len(ds)
		quantile := func(q float64) float64 { return us(ds[min(int(q*float64(n)), n-1)]) }
		rep.Hosts = append(rep.Hosts, HostStats{
			Host: h, Fetches: int64(n), Bytes: hostBytes[h], MeanUs: us(sum / time.Duration(n)),
			P50Us: quantile(0.50), P95Us: quantile(0.95), P99Us: quantile(0.99), MaxUs: us(ds[n-1]),
		})
	}

	// Every fetch span, oldest first.
	sort.SliceStable(fetches, func(i, j int) bool { return fetches[i].Start.Before(fetches[j].Start) })
	for _, sp := range fetches {
		rep.Spans = append(rep.Spans, SpanOut{
			CorrID: sp.CorrID(t.jobID), Host: sp.Peer, Bytes: sp.Bytes,
			StartMs:   ms(sp.Start),
			QueueUs:   us(sp.Sent.Sub(sp.Start)),
			SlotUs:    us(sp.SlotWait),
			RDMAUs:    us(sp.Received.Sub(sp.Sent)),
			DeliverUs: us(sp.End.Sub(sp.Received)),
			TotalUs:   us(sp.End.Sub(sp.Start)),
		})
	}
	return rep
}

// unionIntervals merges sorted intervals into a disjoint cover.
func unionIntervals(sorted []Interval) []Interval {
	var out []Interval
	for _, iv := range sorted {
		if n := len(out); n > 0 && iv.StartMs <= out[n-1].EndMs {
			if iv.EndMs > out[n-1].EndMs {
				out[n-1].EndMs = iv.EndMs
			}
			continue
		}
		out = append(out, Interval{StartMs: iv.StartMs, EndMs: iv.EndMs})
	}
	return out
}

func intervalsLen(ivs []Interval) float64 {
	var total float64
	for _, iv := range ivs {
		total += iv.EndMs - iv.StartMs
	}
	return total
}

// intersectLen returns the total length of the intersection of two
// disjoint sorted interval sets.
func intersectLen(a, b []Interval) float64 {
	var total float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].StartMs
		if b[j].StartMs > lo {
			lo = b[j].StartMs
		}
		hi := a[i].EndMs
		if b[j].EndMs < hi {
			hi = b[j].EndMs
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].EndMs < b[j].EndMs {
			i++
		} else {
			j++
		}
	}
	return total
}

// OverlapMs returns the measured concurrency of phases a and b in
// milliseconds (0 if the pair was not profiled).
func (r *Report) OverlapMs(a, b string) float64 {
	if r == nil {
		return 0
	}
	for _, o := range r.Overlaps {
		if (o.A == a && o.B == b) || (o.A == b && o.B == a) {
			return o.Ms
		}
	}
	return 0
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Text renders the human-readable profile: headline numbers, per-host
// percentiles, the phase-overlap timeline, and a span sample.
func (r *Report) Text() string {
	if r == nil {
		return "(no profile)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "shuffle profile — job %s (%.1f ms)\n", r.JobID, r.DurationMs)
	fmt.Fprintf(&sb, "  time-to-first-byte     %8.2f ms (best of %d reduces)\n", r.TTFBMs, len(r.ReduceTTFB))
	fmt.Fprintf(&sb, "  fetches delivered      %8d\n", r.Fetches)
	fmt.Fprintf(&sb, "  ring-slot occupancy HW %8d\n", r.SlotPeak)
	fmt.Fprintf(&sb, "  merge stall            %8.2f ms\n", r.MergeStallMs)
	if len(r.Hosts) > 0 {
		sb.WriteString("\n  per-host fetch latency (enqueue→deliver, µs):\n")
		fmt.Fprintf(&sb, "    %-10s %8s %10s %10s %10s %10s %12s\n",
			"host", "fetches", "p50", "p95", "p99", "max", "bytes")
		for _, h := range r.Hosts {
			fmt.Fprintf(&sb, "    %-10s %8d %10.1f %10.1f %10.1f %10.1f %12d\n",
				h.Host, h.Fetches, h.P50Us, h.P95Us, h.P99Us, h.MaxUs, h.Bytes)
		}
	}
	if len(r.Phases) > 0 {
		sb.WriteString("\n  phase-overlap timeline:\n")
		rows := make([]PhaseRow, 0, len(r.Phases))
		order := []string{PhaseMap, PhaseShuffle, PhaseMerge, PhaseReduce}
		seen := map[string]bool{}
		add := func(pt PhaseTimeline) {
			ivs := make([][2]float64, 0, len(pt.Windows))
			for _, iv := range pt.Windows {
				ivs = append(ivs, [2]float64{iv.StartMs, iv.EndMs})
			}
			rows = append(rows, PhaseRow{Label: pt.Phase, Intervals: ivs})
		}
		for _, name := range order {
			for _, pt := range r.Phases {
				if pt.Phase == name {
					add(pt)
					seen[name] = true
				}
			}
		}
		for _, pt := range r.Phases {
			if !seen[pt.Phase] {
				add(pt)
			}
		}
		sb.WriteString(RenderPhaseRows(r.DurationMs, rows, "ms"))
	}
	if len(r.Overlaps) > 0 {
		sb.WriteString("\n  measured overlap:\n")
		for _, o := range r.Overlaps {
			fmt.Fprintf(&sb, "    %-8s ∩ %-8s %10.2f ms\n", o.A, o.B, o.Ms)
		}
	}
	if len(r.Spans) > 0 {
		n := len(r.Spans)
		show := n
		if show > 8 {
			show = 8
		}
		fmt.Fprintf(&sb, "\n  fetch spans (%d of %d shown, %d dropped):\n", show, n, r.SpansDropped)
		fmt.Fprintf(&sb, "    %-28s %-8s %9s %9s %9s %9s %9s\n",
			"corr-id", "host", "queue µs", "slot µs", "rdma µs", "deliver", "total µs")
		for _, sp := range r.Spans[:show] {
			fmt.Fprintf(&sb, "    %-28s %-8s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
				sp.CorrID, sp.Host, sp.QueueUs, sp.SlotUs, sp.RDMAUs, sp.DeliverUs, sp.TotalUs)
		}
	}
	return sb.String()
}
