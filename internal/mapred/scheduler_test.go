package mapred

import "testing"

func TestAttemptQueueLocalityPreferred(t *testing.T) {
	q := newAttemptQueue([]int{0, 1}, map[int][]string{
		0: {"node1"},
		1: {"node0"},
	}, 4, false)

	id, attempt, backup, ok := q.take("node0", false, true)
	if !ok || id != 1 || attempt != 1 || backup {
		t.Fatalf("take(node0) = %d,%d,%v,%v, want the node0-local task 1", id, attempt, backup, ok)
	}
	id, _, _, ok = q.take("node1", false, true)
	if !ok || id != 0 {
		t.Fatalf("take(node1) = %d,%v, want the node1-local task 0", id, ok)
	}
}

func TestAttemptQueueFailConsumesBudget(t *testing.T) {
	q := newAttemptQueue([]int{7}, nil, 2, false)

	id, attempt, _, ok := q.take("node0", false, true)
	if !ok || id != 7 || attempt != 1 {
		t.Fatalf("take = %d,%d,%v", id, attempt, ok)
	}
	requeued, fatal := q.fail(7)
	if !requeued || fatal {
		t.Fatalf("first failure: requeued=%v fatal=%v, want requeue", requeued, fatal)
	}
	// The retry gets a fresh attempt number (distinct temp output path).
	id, attempt, _, ok = q.take("node0", false, true)
	if !ok || id != 7 || attempt != 2 {
		t.Fatalf("retry take = %d,%d,%v, want attempt 2", id, attempt, ok)
	}
	requeued, fatal = q.fail(7)
	if requeued || !fatal {
		t.Fatalf("budget exhausted: requeued=%v fatal=%v, want fatal", requeued, fatal)
	}
	if got := q.attempts(7); got != 2 {
		t.Fatalf("attempts = %d, want the full budget 2", got)
	}
}

func TestAttemptQueueCompleteFirstWins(t *testing.T) {
	q := newAttemptQueue([]int{0}, nil, 4, false)
	if _, _, _, ok := q.take("node0", false, true); !ok {
		t.Fatal("take failed")
	}
	if !q.complete(0) {
		t.Fatal("first completion must win")
	}
	if q.complete(0) {
		t.Fatal("duplicate completion must be discarded")
	}
	select {
	case <-q.doneCh:
	default:
		t.Fatal("doneCh must close when the last task completes")
	}
	if _, _, _, ok := q.take("node0", false, true); ok || !q.finished() {
		t.Fatal("a drained queue must hand out nothing and report finished")
	}
	// Late failure reports from a completed task are ignored.
	if requeued, fatal := q.fail(0); requeued || fatal {
		t.Fatal("failure after completion must be a no-op")
	}
}

func TestAttemptQueueSpeculatesOneBackupPerTask(t *testing.T) {
	q := newAttemptQueue([]int{0}, nil, 4, true)

	id, attempt, backup, ok := q.take("node0", false, true)
	if !ok || backup || attempt != 1 {
		t.Fatalf("original take = %d,%d,%v,%v", id, attempt, backup, ok)
	}
	id, attempt, backup, ok = q.take("node1", false, true)
	if !ok || !backup || id != 0 || attempt != 2 {
		t.Fatalf("backup take = %d,%d,%v,%v, want backup attempt 2 of task 0", id, attempt, backup, ok)
	}
	// Only one backup per task: further idle workers park.
	if _, _, _, ok := q.take("node2", false, true); ok || q.finished() {
		t.Fatal("second backup handed out; want park")
	}
}

func TestAttemptQueueRequeueKilledSkipsBudget(t *testing.T) {
	q := newAttemptQueue([]int{0}, nil, 1, true) // budget 1: any real failure is fatal

	if _, _, _, ok := q.take("node0", false, true); !ok {
		t.Fatal("take failed")
	}
	// Node death requeues without burning the (single-attempt) budget.
	if !q.requeueKilled(0, false) {
		t.Fatal("killed original must requeue")
	}
	if got := q.attempts(0); got != 0 {
		t.Fatalf("node death consumed budget: attempts = %d", got)
	}
	id, attempt, _, ok := q.take("node1", false, true)
	if !ok || id != 0 || attempt != 2 {
		t.Fatalf("requeued take = %d,%d,%v", id, attempt, ok)
	}
	// A killed backup only clears the backed flag — the original is still
	// running, so nothing is re-queued, but a fresh backup may launch.
	if _, _, backup, ok := q.take("node2", false, true); !ok || !backup {
		t.Fatalf("backup take = %v,%v", backup, ok)
	}
	if q.requeueKilled(0, true) {
		t.Fatal("killed backup must not requeue the task")
	}
	if _, _, backup, ok := q.take("node0", false, true); !ok || !backup {
		t.Fatalf("re-speculation after killed backup = %v,%v", backup, ok)
	}
}

func TestAttemptQueueLocalOnlyPass(t *testing.T) {
	q := newAttemptQueue([]int{0, 1}, map[int][]string{0: {"node1"}}, 4, false)

	// The local-only pass refuses remote work: node0 has no local split.
	if _, _, _, ok := q.take("node0", true, true); ok || q.finished() {
		t.Fatal("local-only take on a host with no local split must park, not dispatch")
	}
	// node1 gets its local split even under local-only.
	id, _, _, ok := q.take("node1", true, true)
	if !ok || id != 0 {
		t.Fatalf("local-only take(node1) = %d,%v, want local task 0", id, ok)
	}
	// The second pass (localOnly=false) hands node0 the remote leftover.
	id, _, _, ok = q.take("node0", false, true)
	if !ok || id != 1 {
		t.Fatalf("fallback take(node0) = %d,%v, want remote task 1", id, ok)
	}
}

func TestAttemptQueueSpeculationGate(t *testing.T) {
	q := newAttemptQueue([]int{0, 1}, nil, 4, true)
	allowed := map[int]bool{}
	q.setGate(func(id int) bool { return allowed[id] })

	if _, _, _, ok := q.take("node0", false, true); !ok {
		t.Fatal("take 0")
	}
	if _, _, _, ok := q.take("node1", false, true); !ok {
		t.Fatal("take 1")
	}
	// Both tasks running, neither a confirmed straggler: no backups.
	if _, _, backup, ok := q.take("node2", false, true); ok || backup || q.finished() {
		t.Fatal("gate closed but a backup was handed out")
	}
	allowed[1] = true
	id, attempt, backup, ok := q.take("node2", false, true)
	if !ok || !backup || id != 1 || attempt != 2 {
		t.Fatalf("gated backup = %d,%d,%v,%v, want backup of straggler 1", id, attempt, backup, ok)
	}
	// Speculation never goes through the local-only pass.
	allowed[0] = true
	if _, _, _, ok := q.take("node3", true, true); ok {
		t.Fatal("local-only take speculated a backup")
	}
}

func TestAttemptQueueIsDone(t *testing.T) {
	q := newAttemptQueue([]int{0}, nil, 4, false)
	if q.isDone(0) {
		t.Fatal("task done before any attempt")
	}
	if _, _, _, ok := q.take("node0", false, true); !ok {
		t.Fatal("take failed")
	}
	q.complete(0)
	if !q.isDone(0) {
		t.Fatal("completed task not done")
	}
}

func TestAttemptQueueHasDispatchable(t *testing.T) {
	q := newAttemptQueue([]int{0}, nil, 4, false)
	if !q.hasDispatchable() {
		t.Fatal("pending work not dispatchable")
	}
	if _, _, _, ok := q.take("node0", false, true); !ok {
		t.Fatal("take failed")
	}
	if q.hasDispatchable() {
		t.Fatal("running-only, no speculation: nothing to dispatch")
	}
	qs := newAttemptQueue([]int{0}, nil, 4, true)
	if _, _, _, ok := qs.take("node0", false, true); !ok {
		t.Fatal("take failed")
	}
	if !qs.hasDispatchable() {
		t.Fatal("speculation makes a running un-backed task dispatchable")
	}
	if _, _, _, ok := qs.take("node1", false, true); !ok {
		t.Fatal("backup take failed")
	}
	if qs.hasDispatchable() {
		t.Fatal("backed task still reported dispatchable")
	}
}

func TestEventBoardDeliversAndCloses(t *testing.T) {
	b := newEventBoard(2)
	ch, unsub := b.subscribe()
	defer unsub()

	b.announce(MapEvent{MapID: 0, Host: "node0"})
	b.announce(MapEvent{MapID: 0, Host: "node9"}) // duplicate: ignored
	b.announce(MapEvent{MapID: 1, Host: "node1"})

	var got []MapEvent
	for ev := range ch {
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Host != "node0" || got[1].Host != "node1" {
		t.Fatalf("events = %v", got)
	}
}

func TestEventBoardReplaysForLateSubscribers(t *testing.T) {
	b := newEventBoard(3)
	b.announce(MapEvent{MapID: 0, Host: "node0"})
	b.announce(MapEvent{MapID: 1, Host: "node1"})

	// A reduce retry subscribing mid-job sees the full history.
	ch, unsub := b.subscribe()
	defer unsub()
	b.announce(MapEvent{MapID: 2, Host: "node2"})

	var got []int
	for ev := range ch {
		got = append(got, ev.MapID)
	}
	if len(got) != 3 {
		t.Fatalf("late subscriber saw %v, want all 3 maps", got)
	}
}

func TestEventBoardRelocateRewritesHistory(t *testing.T) {
	b := newEventBoard(2)
	b.announce(MapEvent{MapID: 0, Host: "dead"})
	b.announce(MapEvent{MapID: 1, Host: "fine"})

	if got := b.servedBy("dead"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("servedBy(dead) = %v", got)
	}
	b.relocate(0, "fresh")
	if got := b.servedBy("dead"); len(got) != 0 {
		t.Fatalf("relocated map still attributed to dead host: %v", got)
	}
	// Future subscribers replay the new host; the event count contract
	// (one event per map, then close) is untouched.
	ch, unsub := b.subscribe()
	defer unsub()
	var hosts []string
	for ev := range ch {
		hosts = append(hosts, ev.Host)
	}
	if len(hosts) != 2 || hosts[0] != "fresh" {
		t.Fatalf("replayed hosts = %v, want the relocation visible", hosts)
	}
}

func TestEventBoardAbortUnblocksSubscribers(t *testing.T) {
	b := newEventBoard(5)
	ch, unsub := b.subscribe()
	defer unsub()
	b.announce(MapEvent{MapID: 0, Host: "node0"})
	b.abort()

	var n int
	for range ch {
		n++
	}
	if n != 1 {
		t.Fatalf("aborted subscriber drained %d events, want 1", n)
	}
	// Subscribing after abort still replays history, then closes without
	// waiting for maps that will never complete.
	ch2, unsub2 := b.subscribe()
	defer unsub2()
	n = 0
	for range ch2 {
		n++
	}
	if n != 1 {
		t.Fatalf("post-abort subscription drained %d events, want replay then close", n)
	}
	// Announcements after abort are dropped, not delivered to closed
	// channels (no panic).
	b.announce(MapEvent{MapID: 1, Host: "node1"})
}
