package fabric

import (
	"strings"
	"testing"
	"time"
)

func TestModelsCoverAllKinds(t *testing.T) {
	for _, k := range AllKinds() {
		m := Models(k)
		if m.BandwidthBps <= 0 || m.Latency <= 0 || m.MaxPacket <= 0 {
			t.Errorf("%v: incomplete model %+v", k, m)
		}
		if m.Name != k.String() {
			t.Errorf("%v: name mismatch %q", k, m.Name)
		}
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// The evaluation's premise: 1GigE < 10GigE ≈ IPoIB < verbs.
	g1 := Models(GigE1).BandwidthBps
	g10 := Models(TenGigE).BandwidthBps
	ip := Models(IPoIB).BandwidthBps
	vb := Models(IBVerbs).BandwidthBps
	if !(g1 < g10 && g10 <= ip && ip < vb) {
		t.Fatalf("bandwidth ordering violated: %g %g %g %g", g1, g10, ip, vb)
	}
}

func TestOnlyVerbsBypassesOS(t *testing.T) {
	for _, k := range AllKinds() {
		m := Models(k)
		if got, want := m.OSBypass, k == IBVerbs; got != want {
			t.Errorf("%v: OSBypass = %v", k, got)
		}
		if got, want := m.RDMACapable, k == IBVerbs; got != want {
			t.Errorf("%v: RDMACapable = %v", k, got)
		}
	}
}

func TestTransferTime(t *testing.T) {
	m := Models(IBVerbs)
	zero := m.TransferTime(0)
	if zero != m.Latency {
		t.Fatalf("zero-byte transfer %v, want latency %v", zero, m.Latency)
	}
	mb := m.TransferTime(1 << 20)
	if mb <= zero {
		t.Fatal("1MB not slower than 0B")
	}
	// 1 MB at 3.2 GB/s ≈ 328 µs serialization.
	want := m.Latency + time.Duration(float64(1<<20)/3.2e9*1e9)
	if diff := mb - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("1MB transfer %v, want ≈%v", mb, want)
	}
}

func TestHostCPUTimeSocketVsVerbs(t *testing.T) {
	size := 8 << 20
	sock := Models(IPoIB).HostCPUTime(size)
	verbs := Models(IBVerbs).HostCPUTime(size)
	if verbs*10 > sock {
		t.Fatalf("verbs CPU %v not ≪ socket CPU %v; OS-bypass advantage lost", verbs, sock)
	}
}

func TestHostCPUTimeMinimumOnePacket(t *testing.T) {
	m := Models(GigE1)
	if m.HostCPUTime(0) < m.PerPacketCPU {
		t.Fatal("zero-byte message must still cost one packet of CPU")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	m := Models(GigE1)
	for _, fn := range []func(){
		func() { m.TransferTime(-1) },
		func() { m.HostCPUTime(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative size did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	Models(Kind(99))
}

func TestKindString(t *testing.T) {
	if !strings.Contains(IPoIB.String(), "IPoIB") {
		t.Fatal("IPoIB name")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Fatal("unknown kind String")
	}
}

func TestLatencyOrdering(t *testing.T) {
	if Models(IBVerbs).Latency >= Models(IPoIB).Latency {
		t.Fatal("verbs latency must beat IPoIB")
	}
	if Models(IPoIB).Latency >= Models(GigE1).Latency {
		t.Fatal("IPoIB latency must beat 1GigE")
	}
}

// AllKinds lists every fabric kind, in legend order.
func AllKinds() []Kind { return []Kind{GigE1, TenGigE, IPoIB, IBVerbs} }
