package sim

import (
	"testing"

	"rdmamr/internal/fabric"
	"rdmamr/internal/storage"
)

func run(t *testing.T, p Params) Result {
	t.Helper()
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllDesignConfigs(t *testing.T) {
	cases := []Params{
		DefaultParams(Vanilla, fabric.GigE1, storage.HDD1, TeraSort, 4, 10e9),
		DefaultParams(Vanilla, fabric.TenGigE, storage.HDD2, TeraSort, 4, 10e9),
		DefaultParams(Vanilla, fabric.IPoIB, storage.SSD, Sort, 4, 5e9),
		DefaultParams(HadoopA, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 10e9),
		DefaultParams(HadoopA, fabric.IBVerbs, storage.SSD, Sort, 4, 5e9),
		DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD2, TeraSort, 8, 20e9),
		DefaultParams(OSUIB, fabric.IBVerbs, storage.SSD, Sort, 4, 5e9),
	}
	for _, p := range cases {
		res := run(t, p)
		if res.JobSeconds <= 0 {
			t.Errorf("%v/%v/%v: job time %g", p.Design, p.Fabric, p.Storage, res.JobSeconds)
		}
		if res.MapPhaseEnd <= 0 || res.MapPhaseEnd > res.JobSeconds {
			t.Errorf("%v: map end %g outside job %g", p.Design, res.MapPhaseEnd, res.JobSeconds)
		}
		if res.ShuffleEnd < res.MapPhaseEnd || res.ShuffleEnd > res.JobSeconds {
			t.Errorf("%v: shuffle end %g outside [%g,%g]", p.Design, res.ShuffleEnd, res.MapPhaseEnd, res.JobSeconds)
		}
		// Conservation: the network must move exactly the intermediate
		// data volume.
		if diff := res.NetBytes - p.DataBytes; diff > 1e-3*p.DataBytes || diff < -1e-3*p.DataBytes {
			t.Errorf("%v: network moved %g of %g bytes", p.Design, res.NetBytes, p.DataBytes)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{}, // everything zero
		DefaultParams(Vanilla, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 1e9), // vanilla on verbs
		DefaultParams(OSUIB, fabric.IPoIB, storage.HDD1, TeraSort, 4, 1e9),     // RDMA design on sockets
		DefaultParams(HadoopA, fabric.TenGigE, storage.HDD1, TeraSort, 4, 1e9), // RDMA design on sockets
	}
	for i, p := range bad {
		if _, err := Run(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	neg := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 1e9)
	neg.Nodes = -1
	if _, err := Run(neg); err == nil {
		t.Error("negative nodes accepted")
	}
}

func TestMoreDataTakesLonger(t *testing.T) {
	small := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 10e9))
	large := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 30e9))
	if large.JobSeconds <= small.JobSeconds {
		t.Fatalf("30GB (%.0fs) not slower than 10GB (%.0fs)", large.JobSeconds, small.JobSeconds)
	}
}

func TestMoreNodesGoFaster(t *testing.T) {
	four := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 40e9))
	eight := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 8, 40e9))
	if eight.JobSeconds >= four.JobSeconds {
		t.Fatalf("8 nodes (%.0fs) not faster than 4 (%.0fs)", eight.JobSeconds, four.JobSeconds)
	}
}

func TestTwoDisksFaster(t *testing.T) {
	for _, d := range []Design{Vanilla, HadoopA, OSUIB} {
		fk := fabric.IPoIB
		if d != Vanilla {
			fk = fabric.IBVerbs
		}
		one := run(t, DefaultParams(d, fk, storage.HDD1, TeraSort, 4, 30e9))
		two := run(t, DefaultParams(d, fk, storage.HDD2, TeraSort, 4, 30e9))
		if two.JobSeconds >= one.JobSeconds {
			t.Errorf("%v: 2 disks (%.0fs) not faster than 1 (%.0fs)", d, two.JobSeconds, one.JobSeconds)
		}
	}
}

func TestDesignOrderingTeraSort(t *testing.T) {
	// The paper's headline shape: OSU < HadoopA < IPoIB on TeraSort.
	osu := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 8, 60e9))
	ha := run(t, DefaultParams(HadoopA, fabric.IBVerbs, storage.HDD1, TeraSort, 8, 60e9))
	van := run(t, DefaultParams(Vanilla, fabric.IPoIB, storage.HDD1, TeraSort, 8, 60e9))
	if !(osu.JobSeconds < ha.JobSeconds && ha.JobSeconds < van.JobSeconds) {
		t.Fatalf("ordering violated: OSU %.0f, HadoopA %.0f, IPoIB %.0f",
			osu.JobSeconds, ha.JobSeconds, van.JobSeconds)
	}
}

func TestSortCrossoverHadoopAVsIPoIB(t *testing.T) {
	// §IV-C: on Sort, Hadoop-A loses to vanilla-on-IPoIB (size-oblivious
	// packets) while OSU still wins.
	osu := run(t, DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, Sort, 4, 20e9))
	ha := run(t, DefaultParams(HadoopA, fabric.IBVerbs, storage.HDD1, Sort, 4, 20e9))
	van := run(t, DefaultParams(Vanilla, fabric.IPoIB, storage.HDD1, Sort, 4, 20e9))
	if osu.JobSeconds >= van.JobSeconds {
		t.Fatalf("OSU (%.0fs) not faster than IPoIB (%.0fs) on Sort", osu.JobSeconds, van.JobSeconds)
	}
	if ha.JobSeconds <= van.JobSeconds {
		t.Fatalf("Hadoop-A (%.0fs) beat IPoIB (%.0fs) on Sort; the paper's crossover is lost", ha.JobSeconds, van.JobSeconds)
	}
}

func TestCachingHelps(t *testing.T) {
	with := DefaultParams(OSUIB, fabric.IBVerbs, storage.SSD, Sort, 4, 20e9)
	without := with
	without.Caching = false
	rw, rwo := run(t, with), run(t, without)
	if rw.JobSeconds >= rwo.JobSeconds {
		t.Fatalf("caching (%.0fs) not faster than no caching (%.0fs)", rw.JobSeconds, rwo.JobSeconds)
	}
	if rw.CacheHits == 0 {
		t.Fatal("no cache hits with caching on")
	}
	if rwo.CacheHits != 0 || rwo.CacheMisses != 0 {
		t.Fatal("cache counters nonzero with caching off")
	}
}

func TestCacheAccounting(t *testing.T) {
	p := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 20e9)
	res := run(t, p)
	numMaps := int(20e9 / p.BlockSize)
	numReduces := p.ReducesPerNode * p.Nodes
	if res.CacheHits+res.CacheMisses != (numMaps+1)*numReduces && res.CacheHits+res.CacheMisses != numMaps*numReduces {
		t.Fatalf("hits %d + misses %d != fetches %d", res.CacheHits, res.CacheMisses, numMaps*numReduces)
	}
	if res.CacheHits == 0 {
		t.Fatal("prefetch cache never hit")
	}
}

func TestSmallRAMReducesHitRate(t *testing.T) {
	big := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 30e9)
	big.RAMBytes = 24e9
	small := big
	small.RAMBytes = 2e9
	rb, rs := run(t, big), run(t, small)
	hitRate := func(r Result) float64 { return float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses) }
	if hitRate(rs) > hitRate(rb) {
		t.Fatalf("smaller RAM increased hit rate: %.2f vs %.2f", hitRate(rs), hitRate(rb))
	}
}

func TestOverlapAblation(t *testing.T) {
	with := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 30e9)
	without := with
	without.Overlap = false
	rw, rwo := run(t, with), run(t, without)
	if rw.JobSeconds > rwo.JobSeconds {
		t.Fatalf("overlap (%.0fs) slower than barrier (%.0fs)", rw.JobSeconds, rwo.JobSeconds)
	}
}

func TestFetchDepthAblation(t *testing.T) {
	// The copier's ring depth only matters on the no-cache path, where a
	// residual per-chunk stall leaks through the pipeline: depth 1 (the
	// old lockstep copier) must be strictly slower than every deeper
	// ring. (Job time is not strictly monotonic past the default depth —
	// finishing merge stalls sooner can push reduce-output writes into
	// the map phase's disk interleave — so only the depth-1 cliff is a
	// figure-level claim.)
	base := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 20e9)
	base.Caching = false
	shallow := base
	shallow.FetchDepth = 1
	rs := run(t, shallow)
	for _, depth := range []int{2, 4, 8} {
		p := base
		p.FetchDepth = depth
		if r := run(t, p); r.JobSeconds >= rs.JobSeconds {
			t.Fatalf("depth %d (%.0fs) not faster than depth 1 (%.0fs)", depth, r.JobSeconds, rs.JobSeconds)
		}
	}
	deep := base
	rd := run(t, deep)

	// Zero depth means "calibration reference": identical to the default,
	// so hand-built Params and the published figures are unaffected.
	zero := base
	zero.FetchDepth = 0
	if rz := run(t, zero); rz != rd {
		t.Fatalf("FetchDepth 0 (%+v) differs from reference depth (%+v)", rz, rd)
	}

	// With the PrefetchCache on, the stall path is gone and depth is
	// irrelevant — the ablation isolates the no-cache residual.
	cached, cachedShallow := base, base
	cached.Caching, cachedShallow.Caching = true, true
	cachedShallow.FetchDepth = 1
	if rc, rcs := run(t, cached), run(t, cachedShallow); rc != rcs {
		t.Fatalf("depth changed the cached path: %+v vs %+v", rc, rcs)
	}
}

// TestBlockSizeInteriorOptimum backs the paper's §IV tuning claim ("we
// have identified the optimal values of HDFS block-size"). Block size
// sets the map count; for the OSU design on an 8-node, 100 GB TeraSort
// the optimum is interior: 128 MiB blocks beat both 64 and 256 MiB.
func TestBlockSizeInteriorOptimum(t *testing.T) {
	at := func(mib float64) float64 {
		p := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 8, 100e9)
		p.BlockSize = mib * (1 << 20)
		return run(t, p).JobSeconds
	}
	s64, s128, s256 := at(64), at(128), at(256)
	t.Logf("job seconds at 64/128/256 MiB blocks: %.0f / %.0f / %.0f", s64, s128, s256)
	if s128 >= s64 || s128 >= s256 {
		t.Fatalf("128 MiB blocks (%.0fs) not faster than 64 MiB (%.0fs) and 256 MiB (%.0fs)", s128, s64, s256)
	}
}

func TestDeterministic(t *testing.T) {
	p := DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 4, 20e9)
	a, b := run(t, p), run(t, p)
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestFiguresStructure(t *testing.T) {
	figs := AllFigures()
	if len(figs) != 7 {
		t.Fatalf("figures = %d, want 7", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) == 0 || len(f.XTicks) == 0 {
			t.Errorf("%s: empty", f.Name)
		}
		for _, s := range f.Series {
			if len(s.Seconds) != len(f.XTicks) {
				t.Errorf("%s/%s: %d points for %d ticks", f.Name, s.Label, len(s.Seconds), len(f.XTicks))
			}
			for i, v := range s.Seconds {
				if v <= 0 {
					t.Errorf("%s/%s[%d]: nonpositive %g", f.Name, s.Label, i, v)
				}
			}
		}
		if f.String() == "" {
			t.Errorf("%s: rendering broken", f.Name)
		}
	}
}

func TestPaperTargetsWellFormed(t *testing.T) {
	targets := PaperTargets()
	if len(targets) < 20 {
		t.Fatalf("targets = %d", len(targets))
	}
	for _, tg := range targets {
		if err := tg.A.Validate(); err != nil {
			t.Errorf("%s: A invalid: %v", tg.Name, err)
		}
		if err := tg.B.Validate(); err != nil {
			t.Errorf("%s: B invalid: %v", tg.Name, err)
		}
	}
}

func TestDesignAndWorkloadStrings(t *testing.T) {
	if Vanilla.String() == "" || HadoopA.String() == "" || OSUIB.String() == "" || Design(9).String() == "" {
		t.Fatal("design strings")
	}
	if TeraSort.String() != "TeraSort" || Sort.String() != "Sort" {
		t.Fatal("workload strings")
	}
	if TeraSort.AvgRecordBytes() != 100 || Sort.AvgRecordBytes() <= 100 {
		t.Fatal("record sizes")
	}
}

func TestFigScalingShape(t *testing.T) {
	f := FigScaling()
	osu, ok := f.Get("OSU-IB (32Gbps)")
	if !ok {
		t.Fatal("missing OSU series")
	}
	ipoib, _ := f.Get("IPoIB (32Gbps)")
	for i := range osu.Seconds {
		if osu.Seconds[i] >= ipoib.Seconds[i] {
			t.Fatalf("OSU lost at %s nodes", f.XTicks[i])
		}
	}
	// Weak scaling must stay within 2x of the 4-node time at 32 nodes.
	if osu.Seconds[len(osu.Seconds)-1] > 2*osu.Seconds[0] {
		t.Fatalf("weak scaling collapsed: %v", osu.Seconds)
	}
}

func TestFig3TimelineShape(t *testing.T) {
	// The overlap contract of Figure 3: in the vanilla design, reduce
	// work begins only at the shuffle barrier; in the OSU design it
	// begins while the map phase is still running.
	van, err := Run(DefaultParams(Vanilla, fabric.IPoIB, storage.HDD1, TeraSort, 8, 60e9))
	if err != nil {
		t.Fatal(err)
	}
	if van.FirstReduce < van.ShuffleEnd*0.95 {
		t.Fatalf("vanilla reduce began at %.0f before the barrier at %.0f", van.FirstReduce, van.ShuffleEnd)
	}
	osu, err := Run(DefaultParams(OSUIB, fabric.IBVerbs, storage.HDD1, TeraSort, 8, 60e9))
	if err != nil {
		t.Fatal(err)
	}
	if osu.FirstReduce > osu.MapPhaseEnd/2 {
		t.Fatalf("OSU reduce began at %.0f, not overlapped with maps ending %.0f", osu.FirstReduce, osu.MapPhaseEnd)
	}
	if out, err := Fig3Timelines(); err != nil || len(out) == 0 {
		t.Fatalf("timeline rendering: %v", err)
	}
}

// Get returns the series with the given label.
func (f Figure) Get(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}
