package core

import (
	"sync"
	"sync/atomic"

	"rdmamr/internal/mapred"
)

// fetchNode is what the fetchers of one device share (D26): the arenas
// they take at Fetch and give back at Close, and the heap buffers their
// eager chunks are copied into. The device keeps it, so what one node's
// fetches recycle lives and dies with the node and warms no other.
type fetchNode struct {
	arenas arenaList
	heap   classList
	// out counts chunk buffers, heap and registered, handed out and not
	// yet given back: a fetcher that closes leaves it where it found it,
	// which is what the payload-accounting tests hold every exit path to.
	out atomic.Int64
	// poison, set only by tests, scribbles over released chunk buffers,
	// so a record still aliasing one is visibly corrupt.
	poison atomic.Bool
}

type fetchNodeKey struct{}

// nodeOf returns the fetch state tt's device keeps, made the first time
// a fetcher on the node asks.
func nodeOf(tt *mapred.TaskTracker) *fetchNode {
	return tt.Device().Value(fetchNodeKey{}, func() any { return new(fetchNode) }).(*fetchNode)
}

// release gives a chunk's buffer back once nothing reads it: the merge
// retired it, the fetcher closed, or nobody was left to deliver it to.
func (nd *fetchNode) release(pl payload) {
	switch {
	case pl.blk != nil:
		nd.giveBack(pl.blk.Bytes())
		pl.blk.Free()
	case pl.buf != nil:
		buf := pl.buf[:cap(pl.buf)]
		nd.giveBack(buf)
		nd.heap.put(buf)
	}
}

// giveBack books a chunk buffer's return, poisoning it if asked to.
func (nd *fetchNode) giveBack(buf []byte) {
	nd.out.Add(-1)
	if nd.poison.Load() {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
}

// fetchArena is what a fetcher allocates in proportion to its maps and
// hosts: a segment per map; a peer per host, with its request queue and
// the books its connections keep (ring slot table, free-slot stack, send
// batch); the host index; and the merged stream with its source array
// and merge tree. A node's fetchers share arenas (DESIGN.md D26): Close
// gives the arena back to the node's free list once every supervisor has
// exited, cleared, and the next Fetch takes it. A given-back arena
// holds no fetcher and nothing bound to a device — hostPeers sets each
// peer's fetcher and health again on every Fetch, and the closed stream
// drops its fetcher — and live connection state is never in it.
type fetchArena struct {
	segs   []segment
	peers  []hostPeer
	byHost map[string]*hostPeer
	it     mergedStream
}

// An arena is not kept once it has held more than maxArenaMaps segments
// (about 240 bytes each), so a job with that many maps does not leave its
// segments pinned to the node.
const maxArenaMaps = 4096

// arenaList is a free list of arenas. It needs no cap of its own: get
// makes an arena only when the list is empty, so the list never holds
// more arenas than fetchers were ever open at once, which the trackers'
// reduce slots bound.
type arenaList struct {
	mu   sync.Mutex
	free []*fetchArena
}

// get takes the arena the last fetcher to close gave back, or a new one.
func (l *arenaList) get() *fetchArena {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return &fetchArena{}
	}
	a := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return a
}

// put takes back an arena release has cleared.
func (l *arenaList) put(a *fetchArena) {
	if cap(a.segs) > maxArenaMaps {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, a)
	l.mu.Unlock()
}

// segments returns room for a segment per map. The supervisors deliver
// into segments by address, so the fetch never grows it.
func (a *fetchArena) segments(maps int) []segment {
	if cap(a.segs) < maps {
		a.segs = make([]segment, 0, maps)
	}
	return a.segs[:0]
}

// hostPeers sets up a peer per host for f and returns the index over
// them. A fresh arena starts every host's request queue in one
// allocation, room for an even share of the maps each; a host that
// serves more grows its own, and keeps what it grew to.
func (a *fetchArena) hostPeers(f *fetcher, hosts []string) map[string]*hostPeer {
	if cap(a.peers) < len(hosts) {
		a.peers = make([]hostPeer, len(hosts))
		share := f.task.Job.NumMaps/max(len(hosts), 1) + 1
		queues := make([]chunkReq, share*len(hosts))
		for i := range a.peers {
			a.peers[i].reqs = queues[i*share : i*share : (i+1)*share]
		}
	}
	a.peers = a.peers[:len(hosts)]
	if a.byHost == nil {
		a.byHost = make(map[string]*hostPeer, len(hosts))
	}
	plane := planeOf(f.task.Local)
	for i, host := range hosts {
		p := &a.peers[i]
		p.f, p.host, p.health = f, host, plane.healthOf(host)
		if p.wake == nil {
			p.wake = make(chan struct{}, 1)
		}
		if p.lostCh == nil {
			p.lostCh = make(chan struct{})
		}
		a.byHost[host] = p
	}
	return a.byHost
}

// release clears what f used of the arena, so that no segment, request,
// chunk buffer, iterator or fetcher outlives f in it: after Close's
// supervisors have exited, its stream has closed and its segments have
// dropped their chunks. A segment that is nevertheless delivered to
// afterwards has no fetcher, and the delivery faults.
func (a *fetchArena) release(f *fetcher) {
	clear(f.segs)
	a.segs = f.segs[:0]
	for i := range a.peers {
		a.peers[i].reset()
	}
	clear(a.byHost)
}
