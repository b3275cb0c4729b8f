package sim

// Connection & registered-memory scaling model (DESIGN.md D13). The
// functional plane proves the shared connection plane correct at 3-node
// scale; this model answers the question the paper's testbed (max 24
// nodes) cannot: what do endpoints and pinned MR bytes per node look
// like at 1000+ nodes? It prices the two transport generations with the
// same resource arithmetic the rest of the simulator uses — decision
// rules plus the real implementation's constants — and the sweep plus
// TestConnScalingSubLinear pin the claim that the D13 plane's footprint
// is bounded by the LRU cap and active fetch streams, not by
// O(fetchers × hosts).
//
// Legacy transport (pre-D13, what `git show 62079b4:internal/core` did):
// every (fetcher, remote host) pair dials a private endpoint for the
// life of the fetcher, each endpoint pre-posts its own receive ring and
// registers a private send buffer and bounce-buffer ring MR. Per node:
//
//	conns    = reducesPerNode × (nodes-1)
//	MR bytes = conns × (recvDepth×maxMessage + maxMessage + ringBytes)
//
// D13 plane: all fetchers on a device share one endpoint per remote
// host; idle endpoints are LRU-capped and idle-swept, busy endpoints are
// bounded by the active fetch streams (a reducer fetches from at most
// fetchWindow hosts at a time); receives come from one per-device SRQ
// region; send blocks, rings, and headers are carved from pre-registered
// slabs, so pinned bytes are whole slabs, reused across fetcher
// lifetimes. Per node:
//
//	conns    = min(nodes-1, cacheMax + reducesPerNode×fetchWindow)
//	MR bytes = slabRound(srqBytes + conns×maxMessage + streams×ringBytes)

// ConnScaleParams configures the scaling model. Zero fields take the
// defaults below, which mirror the functional plane's configuration
// defaults (config.go, ucr.go, mrpool.go).
type ConnScaleParams struct {
	Nodes          int
	ReducesPerNode int // concurrent reduce tasks per node (reduce slots)
	FetchWindow    int // mapred.reduce.parallel.copies
	RingDepth      int // mapred.rdma.outstanding.per.conn
	PacketBytes    int // mapred.rdma.packet.size (ring slot size)
	CacheMax       int // mapred.rdma.conn.cache.max
}

// Implementation constants the model prices with. Each mirrors a value
// in the functional plane; the connscale test cross-checks the ones that
// are exported.
const (
	csMaxMessage  = 8 << 10 // ucr.MaxMessage: send block / recv slot size
	csSRQDepth    = 512     // ucr.SRQDepth: per-device pre-posted receives
	csLegacyRecvs = 128     // pre-SRQ per-endpoint receive ring (ringDepth in the old ucr.go)
	csSlabBytes   = 8 << 20 // mrpool.DefaultSlabBytes: pinning granularity
	csRingDepth   = 4       // default outstanding.per.conn
	csPacketBytes = 128 << 10
	csCacheMax    = 16 // default conn.cache.max
	csFetchWindow = 4  // paper-tuned parallel copies
	csReduceSlots = 4  // paper-tuned reduce slots per node
)

func (p *ConnScaleParams) defaults() {
	if p.ReducesPerNode == 0 {
		p.ReducesPerNode = csReduceSlots
	}
	if p.FetchWindow == 0 {
		p.FetchWindow = csFetchWindow
	}
	if p.RingDepth == 0 {
		p.RingDepth = csRingDepth
	}
	if p.PacketBytes == 0 {
		p.PacketBytes = csPacketBytes
	}
	if p.CacheMax == 0 {
		p.CacheMax = csCacheMax
	}
}

// ConnScalePoint reports both transport generations' per-node footprint
// at one cluster size.
type ConnScalePoint struct {
	Nodes int

	// LegacyConns/LegacyMRBytes: per-pair endpoints, per-endpoint
	// registration.
	LegacyConns   int
	LegacyMRBytes int64

	// PlaneConns/PlaneMRBytes: shared endpoints under the LRU cap, slab
	// carves.
	PlaneConns   int
	PlaneMRBytes int64
}

// slabRound rounds bytes up to whole pinned slabs — the accountant pins
// slab granularity, so this is what `mr.slab.bytes.pinned` would read.
func slabRound(b int64) int64 {
	slabs := (b + csSlabBytes - 1) / csSlabBytes
	return slabs * csSlabBytes
}

// ConnScale evaluates the model at one cluster size.
func ConnScale(p ConnScaleParams) ConnScalePoint {
	p.defaults()
	hosts := p.Nodes - 1
	if hosts < 0 {
		hosts = 0
	}
	ringBytes := int64(p.RingDepth) * int64(p.PacketBytes)

	// Legacy: every fetcher × every remote host, each connection carrying
	// its own recv ring, send buffer, and individually registered ring MR.
	legacyConns := p.ReducesPerNode * hosts
	legacyMR := int64(legacyConns) * (csLegacyRecvs*csMaxMessage + csMaxMessage + ringBytes)

	// Plane: busy endpoints bounded by active fetch streams, idle ones by
	// the LRU cap, and never more than one per remote host.
	streams := p.ReducesPerNode * p.FetchWindow
	planeConns := p.CacheMax + streams
	if planeConns > hosts {
		planeConns = hosts
	}
	planeMR := slabRound(csSRQDepth*csMaxMessage +
		int64(planeConns)*csMaxMessage +
		int64(streams)*ringBytes)

	return ConnScalePoint{
		Nodes:       p.Nodes,
		LegacyConns: legacyConns, LegacyMRBytes: legacyMR,
		PlaneConns: planeConns, PlaneMRBytes: planeMR,
	}
}

// ConnScaleSweep evaluates the model at each cluster size with the
// default (paper-tuned) per-node configuration — the series behind
// BenchmarkAblationConnScale and the README scaling table.
func ConnScaleSweep(nodes []int) []ConnScalePoint {
	out := make([]ConnScalePoint, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, ConnScale(ConnScaleParams{Nodes: n}))
	}
	return out
}
