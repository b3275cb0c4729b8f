package core_test

import (
	"runtime"
	"testing"
	"time"

	"rdmamr/internal/core"
	"rdmamr/internal/mapred"
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
