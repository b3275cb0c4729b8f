package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(2, func() { order = append(order, 2) })
	s.After(1, func() { order = append(order, 1) })
	s.After(3, func() { order = append(order, 3) })
	end := s.Run()
	if end != 3 {
		t.Fatalf("end time %g, want 3", end)
	}
	for i, w := range []int{1, 2, 3} {
		if order[i] != w {
			t.Fatalf("order %v", order)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	hits := 0
	s.After(1, func() {
		hits++
		s.After(1, func() {
			hits++
			if s.Now() != 2 {
				t.Errorf("inner event at %g, want 2", s.Now())
			}
		})
	})
	s.Run()
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestInvalidTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	s.At(math.NaN(), func() {})
}

func TestEventLimit(t *testing.T) {
	s := New()
	s.SetEventLimit(10)
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit did not trip")
		}
	}()
	s.Run()
}

func TestServerRespectsCapacity(t *testing.T) {
	s := New()
	sv := NewServer(s, 2)
	var doneAt []float64
	for i := 0; i < 4; i++ {
		sv.Submit(10, func() { doneAt = append(doneAt, s.Now()) })
	}
	if sv.InService() != 2 || sv.QueueLen() != 2 {
		t.Fatalf("in-service=%d queued=%d", sv.InService(), sv.QueueLen())
	}
	s.Run()
	// Two jobs finish at t=10, the next two (queued) at t=20.
	want := []float64{10, 10, 20, 20}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
}

func TestServerZeroServiceTime(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	done := false
	sv.Submit(0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("zero-service job never completed")
	}
}

func TestServerNegativeServicePanics(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative service did not panic")
		}
	}()
	sv.Submit(-1, func() {})
}

func TestFairLinkSingleFlow(t *testing.T) {
	s := New()
	l := NewFairLink(s, 100, nil) // 100 B/s
	var done float64
	l.Transfer(500, func() { done = s.Now() })
	s.Run()
	if math.Abs(done-5) > 1e-6 {
		t.Fatalf("single flow finished at %g, want 5", done)
	}
}

func TestFairLinkEqualShare(t *testing.T) {
	s := New()
	l := NewFairLink(s, 100, nil)
	var t1, t2 float64
	l.Transfer(500, func() { t1 = s.Now() })
	l.Transfer(500, func() { t2 = s.Now() })
	s.Run()
	// Two equal flows at 50 B/s each: both done at t=10.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Fatalf("t1=%g t2=%g, want 10", t1, t2)
	}
}

func TestFairLinkLateArrival(t *testing.T) {
	s := New()
	l := NewFairLink(s, 100, nil)
	var tBig, tSmall float64
	l.Transfer(1000, func() { tBig = s.Now() })
	s.After(5, func() { l.Transfer(250, func() { tSmall = s.Now() }) })
	s.Run()
	// Big flow alone 0-5s: 500 B done. Then shared at 50 B/s each.
	// Small (250B) done at 5+5=10. Big has 250 left at t=10, alone again:
	// finishes 10+2.5=12.5.
	if math.Abs(tSmall-10) > 1e-6 {
		t.Fatalf("tSmall = %g, want 10", tSmall)
	}
	if math.Abs(tBig-12.5) > 1e-6 {
		t.Fatalf("tBig = %g, want 12.5", tBig)
	}
}

func TestFairLinkZeroBytes(t *testing.T) {
	s := New()
	l := NewFairLink(s, 100, nil)
	done := false
	l.Transfer(0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("zero-byte transfer never completed")
	}
}

func TestFairLinkBytesMoved(t *testing.T) {
	s := New()
	l := NewFairLink(s, 100, nil)
	l.Transfer(300, func() {})
	l.Transfer(200, func() {})
	s.Run()
	if math.Abs(l.BytesMoved()-500) > 1e-6 {
		t.Fatalf("moved = %g, want 500", l.BytesMoved())
	}
}

func TestSeekPenaltySlowsAggregate(t *testing.T) {
	// With SeekPenalty(0.5) and two flows, aggregate drops to 1/1.5 of
	// capacity, so two 500 B flows on a 100 B/s link take 15 s not 10 s.
	s := New()
	l := NewFairLink(s, 100, SeekPenalty(0.5))
	var t1 float64
	l.Transfer(500, func() { t1 = s.Now() })
	l.Transfer(500, func() {})
	s.Run()
	if math.Abs(t1-15) > 1e-6 {
		t.Fatalf("penalized completion at %g, want 15", t1)
	}
}

func TestPenaltyFuncs(t *testing.T) {
	if NoPenalty(10) != 1 {
		t.Fatal("NoPenalty != 1")
	}
	p := SeekPenalty(0.2)
	if p(1) != 1 {
		t.Fatal("penalty at n=1 must be 1")
	}
	if p(2) >= p(1) || p(5) >= p(2) {
		t.Fatal("penalty must decrease with concurrency")
	}
}

// TestFairLinkConservation: total bytes delivered equals total bytes
// offered, for random flow sets with random arrival times.
func TestFairLinkConservation(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		s := New()
		l := NewFairLink(s, 1000, SeekPenalty(0.1))
		var total float64
		at := 0.0
		for i, sz := range sizes {
			b := float64(sz)
			total += b
			if i < len(gaps) {
				at += float64(gaps[i]) / 10
			}
			s.At(at, func() { l.Transfer(b, func() {}) })
		}
		s.Run()
		return math.Abs(l.BytesMoved()-total) < 1e-3*float64(len(sizes)+1) && l.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGate(t *testing.T) {
	s := New()
	g := NewGate(s, 2)
	var doneAt []float64
	task := func(d float64) {
		g.Acquire(func(release func()) {
			s.After(d, func() {
				doneAt = append(doneAt, s.Now())
				release()
			})
		})
	}
	for i := 0; i < 4; i++ {
		task(10)
	}
	if g.InUse() != 2 || g.Waiting() != 2 {
		t.Fatalf("inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
	s.Run()
	want := []float64{10, 10, 20, 20}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("doneAt = %v", doneAt)
		}
	}
}

func TestGateDoubleReleasePanics(t *testing.T) {
	s := New()
	g := NewGate(s, 1)
	g.Acquire(func(release func()) {
		release()
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		release()
	})
	s.Run()
}

func TestBarrier(t *testing.T) {
	s := New()
	fired := false
	b := NewBarrier(s, 2, func() { fired = true })
	b.Signal()
	if fired {
		t.Fatal("fired early")
	}
	b.Signal()
	if !fired {
		t.Fatal("did not fire")
	}
}

func TestBarrierZero(t *testing.T) {
	s := New()
	fired := false
	NewBarrier(s, 0, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("zero barrier did not fire")
	}
}

func TestBarrierOverSignalPanics(t *testing.T) {
	s := New()
	b := NewBarrier(s, 1, func() {})
	b.Signal()
	defer func() {
		if recover() == nil {
			t.Error("over-signal did not panic")
		}
	}()
	b.Signal()
}

// QueueLen returns the number of waiting (not in-service) jobs.
func (sv *Server) QueueLen() int { return len(sv.queue) }

// InService returns the number of jobs currently being served.
func (sv *Server) InService() int { return sv.busy }

// SeekPenalty returns a PenaltyFunc where each additional concurrent
// stream costs fraction alpha of aggregate throughput:
// efficiency = 1/(1+alpha*(n-1)).
func SeekPenalty(alpha float64) PenaltyFunc {
	return FloorPenalty(alpha, 0)
}

// Active returns the number of in-flight flows.
func (l *FairLink) Active() int { return len(l.flows) }

// BytesMoved returns cumulative bytes delivered by the link.
func (l *FairLink) BytesMoved() float64 { return l.moved }

// InUse returns the number of held slots.
func (g *Gate) InUse() int { return g.inUse }

// Waiting returns the number of queued acquirers.
func (g *Gate) Waiting() int { return len(g.waiters) }
