package core_test

import (
	"runtime"
	"testing"
	"time"

	"rdmamr/internal/core"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mrpool"
)

// TestClusterCloseLeavesNoGoroutines: a 4-node cluster that ran a TeraSort
// on the RDMA engine leaves nothing running once closed. Its 16 cached
// host connections run no goroutine of their own — answers are routed on
// the device receive pumps (D25) — and Close stops those pumps, one per
// device, after the shuffle servers.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := mapred.NewCluster(4, rdmaConf(), core.New())
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	runTeraSort(t, c, 4000, 4)
	if got := c.Counters().Get("shuffle.rdma.conn.opened"); got < 4 {
		t.Fatalf("shuffle.rdma.conn.opened = %d: the job did not use the connection plane", got)
	}
	c.Close()
	closed = true
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before NewCluster\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedClusterFreesItsMemory: a closed cluster leaves neither heap
// nor registered memory behind. Three times over, a 4-node cluster runs
// a TeraSort and closes; after each Close every device's slab pool has
// nothing pinned and nothing lent, and the live heap is back within
// 16 MB of where it stood before the first cluster. Nothing process-wide
// keeps a node's connection plane, health records or slabs: they live on
// the node's device, and Close closes it.
func TestClosedClusterFreesItsMemory(t *testing.T) {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const slack = 16 << 20
	before := live()
	for cycle := 1; cycle <= 3; cycle++ {
		c, err := mapred.NewCluster(4, rdmaConf(), core.New())
		if err != nil {
			t.Fatal(err)
		}
		runTeraSort(t, c, 4000, 4)
		pools := make([]*mrpool.Pool, 0, 4)
		for _, tt := range c.Trackers() {
			pools = append(pools, mrpool.For(tt.Device()))
		}
		c.Close()
		for i, p := range pools {
			if p.PinnedBytes() != 0 || p.OutstandingBlocks() != 0 {
				t.Fatalf("cycle %d node%d: %d bytes pinned, %d blocks out (%v) after Close, want none",
					cycle, i, p.PinnedBytes(), p.OutstandingBlocks(), p.Attribution())
			}
		}
		pools = nil
		// An end-point failed by the closing fabric finishes closing on a
		// goroutine of its own: give the stragglers a moment.
		deadline := time.Now().Add(10 * time.Second)
		got := live()
		for got-before > slack && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			got = live()
		}
		if got-before > slack {
			t.Fatalf("cycle %d: live heap %d MB after Close, %d MB before the first NewCluster",
				cycle, got>>20, before>>20)
		}
	}
}
