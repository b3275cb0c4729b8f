package stats

import (
	"sync"
	"testing"
	"time"
)

func TestCountersBasic(t *testing.T) {
	var c Counters
	c.Add("x", 3)
	c.Add("x", 4)
	if c.Get("x") != 7 {
		t.Fatalf("x = %d", c.Get("x"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter nonzero")
	}
}

func TestCountersSnapshotIsolated(t *testing.T) {
	var c Counters
	c.Add("a", 1)
	snap := c.Snapshot()
	snap["a"] = 99
	if c.Get("a") != 1 {
		t.Fatal("snapshot aliases internal map")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if c.Get("n") != 8000 {
		t.Fatalf("n = %d", c.Get("n"))
	}
}

func TestPhases(t *testing.T) {
	var p Phases
	p.Observe("map", 2*time.Second)
	p.Observe("map", time.Second)
	snap := p.Snapshot()
	if snap["map"] != 3*time.Second {
		t.Fatalf("map = %v", snap["map"])
	}
	snap["map"] = 0
	if p.Snapshot()["map"] != 3*time.Second {
		t.Fatal("snapshot aliases internal map")
	}
}

func TestCountersHandleAndRegistry(t *testing.T) {
	var c Counters
	h := c.Handle("hot")
	h.Add(4)
	if c.Get("hot") != 4 {
		t.Fatalf("handle write invisible: %d", c.Get("hot"))
	}
	if c.Registry() == nil || c.Registry() != c.Registry() {
		t.Fatal("Registry must be stable and non-nil")
	}
}
