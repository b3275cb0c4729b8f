package core

import (
	"sync"
	"time"
)

// readLease is the server-side pin behind one published descriptor
// manifest (D9). Publishing (rkey, addr, len) descriptors hands the
// copier the right to READ cache memory the responder no longer watches,
// so every manifest takes a lease: a pinned cache body plus a deadline.
// The pin keeps the run's memory region registered while the copier
// drains the plan; the deadline bounds how long an unresponsive or dead
// copier can hold cache memory hostage. An expired or drained lease drops
// the pin — if that was the last reference (entry evicted or job
// removed), the region deregisters and any straggler READ completes with
// a remote-access fault the copier turns into a clean fallback.
type readLease struct {
	body    *cacheBody
	expires time.Time
}

// leaseTable tracks the live leases of one trackerServer. IDs are never
// reused, so a release for an already-expired lease is a harmless miss.
type leaseTable struct {
	mu     sync.Mutex
	next   uint64
	leases map[uint64]*readLease
}

func newLeaseTable() *leaseTable {
	return &leaseTable{leases: make(map[uint64]*readLease)}
}

// grant holds body's pin under a fresh lease expiring ttl from now and
// returns the lease ID the manifest carries. The table owns the pin from
// here: exactly one of release, expire, or drain drops it.
func (t *leaseTable) grant(body *cacheBody, ttl time.Duration) uint64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.leases[id] = &readLease{body: body, expires: time.Now().Add(ttl)}
	t.mu.Unlock()
	return id
}

// release drops the lease (copier finished or abandoned its plan) and
// reports whether it was still live. Pins are released outside the lock:
// the last-reference path deregisters a memory region, which must not run
// under the table mutex.
func (t *leaseTable) release(id uint64) bool {
	t.mu.Lock()
	l, ok := t.leases[id]
	if ok {
		delete(t.leases, id)
	}
	t.mu.Unlock()
	if ok {
		l.body.Release()
	}
	return ok
}

// expire drops every lease past now and returns how many (the janitor
// counts them into shuffle.rdma.read.lease.expired).
func (t *leaseTable) expire(now time.Time) int {
	t.mu.Lock()
	var victims []*readLease
	for id, l := range t.leases {
		if now.After(l.expires) {
			victims = append(victims, l)
			delete(t.leases, id)
		}
	}
	t.mu.Unlock()
	for _, l := range victims {
		l.body.Release()
	}
	return len(victims)
}

// drain drops every lease unconditionally (server shutdown).
func (t *leaseTable) drain() {
	t.mu.Lock()
	victims := make([]*readLease, 0, len(t.leases))
	for id, l := range t.leases {
		victims = append(victims, l)
		delete(t.leases, id)
	}
	t.mu.Unlock()
	for _, l := range victims {
		l.body.Release()
	}
}
