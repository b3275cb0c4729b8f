package core

import (
	"sync"

	"rdmamr/internal/shuffle/stream"
)

// fetchArena is what a fetcher allocates in proportion to its maps and
// hosts: a segment per map; a peer per host, with its request queue and
// the books its connections keep (ring slot table, free-slot channel, send
// batch, held slots); the host index; and the merged stream with its
// gather arrays and merge heap. Fetchers share arenas (DESIGN.md D26):
// Close gives the arena back to the process's free list once every pump
// has exited, cleared, and the next Fetch takes it. Nothing in an arena
// is bound to a device — hostPeers sets each peer's fetcher and health
// again on every Fetch — and live connection state (leases, rings, pumps)
// is never in it.
type fetchArena struct {
	segs   []segment
	peers  []hostPeer
	byHost map[string]*hostPeer
	it     stream.Iterator[payload]
}

// An arena is not kept once it has held more than maxArenaMaps segments
// (about 240 bytes each), so a job with that many maps does not leave its
// segments pinned to the process.
const maxArenaMaps = 4096

// arenaList is a free list of arenas. It needs no cap of its own: get
// makes an arena only when the list is empty, so the list never holds
// more arenas than fetchers were ever open at once, which the trackers'
// reduce slots bound.
type arenaList struct {
	mu   sync.Mutex
	free []*fetchArena
}

var arenas arenaList

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

// segments returns room for a segment per map. The pumps deliver into
// segments by address, so the fetch never grows it.
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
	dev := f.task.Local.Device()
	for i, host := range hosts {
		p := &a.peers[i]
		p.f, p.host, p.health = f, host, healthFor(dev, host)
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
// chunk buffer, iterator or fetcher outlives f in it: after Close's pumps
// have exited, its stream has closed and its segments have dropped their
// chunks. A segment that is nevertheless delivered to afterwards has no
// fetcher, and the delivery faults.
func (a *fetchArena) release(f *fetcher) {
	clear(f.segs)
	a.segs = f.segs[:0]
	for i := range a.peers {
		a.peers[i].reset()
	}
	clear(a.byHost)
}
