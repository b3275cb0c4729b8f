package jobtracker

import (
	"sort"
	"testing"
	"time"
)

func TestAdmissionAdmitsUpToMax(t *testing.T) {
	a := NewAdmission(2)
	ch1, q1 := a.Submit("j1")
	ch2, q2 := a.Submit("j2")
	if q1 || q2 {
		t.Fatalf("first two jobs queued: %v %v", q1, q2)
	}
	for _, ch := range []<-chan struct{}{ch1, ch2} {
		select {
		case <-ch:
		default:
			t.Fatal("admitted channel not closed")
		}
	}
	ch3, q3 := a.Submit("j3")
	if !q3 {
		t.Fatal("third job must queue")
	}
	select {
	case <-ch3:
		t.Fatal("queued job admitted early")
	default:
	}
	if running, queued := a.Stats(); running != 2 || queued != 1 {
		t.Fatalf("stats = %d running, %d queued", running, queued)
	}
	a.Release() // j1 finishes; its slot transfers to j3
	select {
	case <-ch3:
	case <-time.After(time.Second):
		t.Fatal("release did not admit the queued job")
	}
	if running, queued := a.Stats(); running != 2 || queued != 0 {
		t.Fatalf("stats after release = %d running, %d queued", running, queued)
	}
}

func TestAdmissionFIFOOrder(t *testing.T) {
	a := NewAdmission(1)
	a.Submit("j1")
	ch2, _ := a.Submit("j2")
	ch3, _ := a.Submit("j3")
	a.Release()
	select {
	case <-ch3:
		t.Fatal("j3 admitted before j2")
	default:
	}
	select {
	case <-ch2:
	default:
		t.Fatal("j2 not admitted")
	}
	a.Release()
	select {
	case <-ch3:
	default:
		t.Fatal("j3 not admitted")
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1)
	a.Submit("j1")
	a.Submit("j2")
	if !a.Cancel("j2") {
		t.Fatal("queued job must cancel")
	}
	if a.Cancel("j1") {
		t.Fatal("running job must not cancel (caller owns the slot)")
	}
	ch3, _ := a.Submit("j3")
	a.Release()
	select {
	case <-ch3:
	default:
		t.Fatal("cancelled job still blocked the queue")
	}
}

func TestDWRRSharesSlotsEvenly(t *testing.T) {
	d := NewDWRR()
	d.Add("a", 1)
	d.Add("b", 1)
	all := func(string) bool { return true }
	dispatched := map[string]int{}
	for i := 0; i < 100; i++ {
		order := d.Candidates(all)
		if len(order) != 2 {
			t.Fatalf("candidates = %v", order)
		}
		d.Charge(order[0], 1)
		dispatched[order[0]]++
	}
	if dispatched["a"] != 50 || dispatched["b"] != 50 {
		t.Fatalf("equal-weight jobs got %v, want 50/50", dispatched)
	}
}

func TestDWRRWeightsProportional(t *testing.T) {
	d := NewDWRR()
	d.Add("heavy", 3)
	d.Add("light", 1)
	all := func(string) bool { return true }
	dispatched := map[string]int{}
	for i := 0; i < 120; i++ {
		order := d.Candidates(all)
		d.Charge(order[0], 1)
		dispatched[order[0]]++
	}
	if dispatched["heavy"] != 90 || dispatched["light"] != 30 {
		t.Fatalf("3:1 weights got %v, want 90/30", dispatched)
	}
}

func TestDWRRIdleJobDeficitResets(t *testing.T) {
	d := NewDWRR()
	d.Add("a", 1)
	d.Add("b", 1)
	// b has no work for a while; it must not bank credit to spend later.
	onlyA := func(id string) bool { return id == "a" }
	for i := 0; i < 10; i++ {
		order := d.Candidates(onlyA)
		if len(order) != 1 || order[0] != "a" {
			t.Fatalf("candidates = %v", order)
		}
		d.Charge("a", 1)
	}
	if got := d.Deficit("b"); got != 0 {
		t.Fatalf("idle job banked deficit %d", got)
	}
	// When b wakes up it competes fairly, not with a hoard.
	all := func(string) bool { return true }
	dispatched := map[string]int{}
	for i := 0; i < 20; i++ {
		order := d.Candidates(all)
		d.Charge(order[0], 1)
		dispatched[order[0]]++
	}
	if dispatched["a"] != 10 || dispatched["b"] != 10 {
		t.Fatalf("after wake: %v, want 10/10", dispatched)
	}
}

func TestDWRRRemove(t *testing.T) {
	d := NewDWRR()
	d.Add("a", 1)
	d.Add("b", 1)
	d.Remove("a")
	order := d.Candidates(func(string) bool { return true })
	if len(order) != 1 || order[0] != "b" {
		t.Fatalf("candidates after remove = %v", order)
	}
}

func TestStragglerNeedsMinFinished(t *testing.T) {
	base := time.Unix(0, 0)
	s := NewStragglers(8)
	s.Started(0, base)
	// Far past any threshold, but nothing has finished: no speculation.
	if s.Straggler(0, base.Add(time.Hour)) {
		t.Fatal("speculated with no completed attempts")
	}
	for id := 1; id <= 3; id++ {
		s.Started(id, base)
		s.Finished(id, base.Add(100*time.Millisecond))
	}
	// Median 100ms, ratio 150% → threshold 150ms.
	if s.Straggler(0, base.Add(120*time.Millisecond)) {
		t.Fatal("speculated below the threshold")
	}
	if !s.Straggler(0, base.Add(200*time.Millisecond)) {
		t.Fatal("did not speculate past 150% of median")
	}
}

func TestStragglerMinFinishedCappedBySmallJob(t *testing.T) {
	base := time.Unix(0, 0)
	// 2-task job: the cap on the three completions asked for (total-1 =
	// 1) applies, else the last task could never speculate.
	s := NewStragglers(2)
	s.Started(0, base)
	s.Started(1, base)
	s.Finished(1, base.Add(10*time.Millisecond))
	if !s.Straggler(0, base.Add(time.Second)) {
		t.Fatal("small job could not speculate its last task")
	}
}

func TestStragglerThresholdFloor(t *testing.T) {
	base := time.Unix(0, 0)
	s := NewStragglers(4)
	s.Started(0, base)
	for id := 1; id <= 3; id++ {
		s.Started(id, base)
		s.Finished(id, base) // 0-duration attempts: median 0
	}
	if s.Straggler(0, base.Add(500*time.Microsecond)) {
		t.Fatal("zero median must not make every running task a straggler")
	}
	if !s.Straggler(0, base.Add(5*time.Millisecond)) {
		t.Fatal("floor must still allow detection past 1ms")
	}
}

func TestStragglerUnknownTask(t *testing.T) {
	base := time.Unix(0, 0)
	s := NewStragglers(4)
	for id := 1; id <= 3; id++ {
		s.Started(id, base)
		s.Finished(id, base.Add(10*time.Millisecond))
	}
	// Three finished, so only its being unknown keeps task 9 from
	// speculating however long it has been.
	if s.Straggler(9, base.Add(time.Hour)) {
		t.Fatal("unknown task reported as straggler")
	}
	s.Finished(9, base.Add(time.Hour)) // no-op, must not panic or skew the median
	if got := s.Median(); got != 10*time.Millisecond {
		t.Fatalf("median after an unstarted finish = %v, want 10ms", got)
	}
}

// Deficit returns job id's unspent credit (0 when unknown).
func (d *DWRR) Deficit(id string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.flows[id]; ok {
		return f.deficit
	}
	return 0
}

// Median exposes the current median completed duration (0 when nothing
// finished) — diagnostics and tests.
func (s *Stragglers) Median() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.took) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.took...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
