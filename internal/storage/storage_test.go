package storage

import (
	"errors"
	"sync"
	"testing"
)

func TestDeviceModels(t *testing.T) {
	for _, k := range AllKinds() {
		m := Device(k)
		if m.ReadBps <= 0 || m.WriteBps <= 0 || m.Spindles < 1 {
			t.Errorf("%v: incomplete model %+v", k, m)
		}
	}
}

func TestDeviceOrdering(t *testing.T) {
	h1, h2, ssd := Device(HDD1), Device(HDD2), Device(SSD)
	if h2.ReadBps <= h1.ReadBps {
		t.Fatal("two disks must beat one")
	}
	if ssd.ReadBps <= h1.ReadBps {
		t.Fatal("SSD must beat one HDD")
	}
	if ssd.SeekAlpha >= h1.SeekAlpha {
		t.Fatal("SSD interleave penalty must be far below HDD")
	}
	if h2.SeekAlpha >= h1.SeekAlpha {
		t.Fatal("JBOD must reduce interleave penalty")
	}
	if ssd.RequestLatency >= h1.RequestLatency {
		t.Fatal("SSD latency must beat HDD")
	}
}

func TestReadWriteTime(t *testing.T) {
	m := Device(HDD1)
	if m.ReadTime(100e6) < 1.0 {
		t.Fatal("100MB at 100MB/s must take ≥1s")
	}
	if m.ReadTime(0) != m.RequestLatency {
		t.Fatal("zero-size read must cost request latency")
	}
	if m.WriteTime(1e6) <= m.RequestLatency {
		t.Fatal("write time missing transfer component")
	}
}

func TestNegativeSizesPanic(t *testing.T) {
	m := Device(SSD)
	for _, fn := range []func(){func() { m.ReadTime(-1) }, func() { m.WriteTime(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative size accepted")
				}
			}()
			fn()
		}()
	}
}

func TestUnknownDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown device accepted")
		}
	}()
	Device(DeviceKind(9))
}

func TestKindString(t *testing.T) {
	if HDD1.String() != "1disk" || HDD2.String() != "2disks" || SSD.String() != "ssd" {
		t.Fatal("legend names changed")
	}
}

func TestStorePutGet(t *testing.T) {
	s := NewLocalStore()
	if err := s.Put("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || string(got) != "hello" {
		t.Fatalf("get: %q %v", got, err)
	}
}

func TestStorePutDuplicate(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("x", nil)
	if err := s.Put("x", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate put: %v", err)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewLocalStore()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: %v", err)
	}
}

func TestStoreCopiesData(t *testing.T) {
	s := NewLocalStore()
	data := []byte("mutable")
	_ = s.Put("k", data)
	data[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "mutable" {
		t.Fatal("store aliases caller buffer")
	}
	got[0] = 'Y'
	again, _ := s.Get("k")
	if string(again) != "mutable" {
		t.Fatal("store hands out aliased buffer")
	}
}

func TestStoreOverwrite(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("k", []byte("one"))
	s.Overwrite("k", []byte("two"))
	got, _ := s.Get("k")
	if string(got) != "two" {
		t.Fatalf("overwrite: %q", got)
	}
}

// TestStoreOverwriteCopiesOwnedDoesNot pins the two contracts side by
// side: Overwrite keeps a copy, OverwriteOwned keeps the caller's slice
// (no allocation at all) and still serves reads as copies.
func TestStoreOverwriteCopiesOwnedDoesNot(t *testing.T) {
	s := NewLocalStore()
	data := []byte("mutable")
	s.Overwrite("copied", data)
	data[0] = 'X'
	if got, _ := s.Get("copied"); string(got) != "mutable" {
		t.Fatal("Overwrite aliases the caller's buffer")
	}

	run := []byte("a freshly encoded run")
	if allocs := testing.AllocsPerRun(10, func() { s.OverwriteOwned("owned", run) }); allocs != 0 {
		t.Fatalf("OverwriteOwned allocated %.0f times, want 0", allocs)
	}
	got, _ := s.Get("owned")
	got[0] = 'Y'
	if again, _ := s.Get("owned"); string(again) != "a freshly encoded run" {
		t.Fatal("Get hands out the stored buffer")
	}
	if _, written, _, writes := s.Counters(); writes != 12 || written != int64(len("mutable")+11*len(run)) {
		t.Fatalf("write accounting: %d bytes in %d writes", written, writes)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("k", nil)
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("k") {
		t.Fatal("still exists after delete")
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreListAndSize(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("job1/map2", []byte("aa"))
	_ = s.Put("job1/map1", []byte("b"))
	_ = s.Put("job2/map1", []byte("c"))
	got := s.List("job1/")
	if len(got) != 2 || got[0] != "job1/map1" || got[1] != "job1/map2" {
		t.Fatalf("list: %v", got)
	}
	if n, err := s.Size("job1/map2"); err != nil || n != 2 {
		t.Fatalf("size: %d %v", n, err)
	}
	if _, err := s.Size("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("size missing: %v", err)
	}
	if s.TotalBytes() != 4 {
		t.Fatalf("total bytes = %d", s.TotalBytes())
	}
}

func TestStoreCounters(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("k", make([]byte, 100))
	_, _ = s.Get("k")
	_, _ = s.Get("k")
	br, bw, r, w := s.Counters()
	if br != 200 || bw != 100 || r != 2 || w != 1 {
		t.Fatalf("counters: %d %d %d %d", br, bw, r, w)
	}
	// Size and Exists must not count as reads (the cache uses them).
	_, _ = s.Size("k")
	s.Exists("k")
	br2, _, r2, _ := s.Counters()
	if br2 != br || r2 != r {
		t.Fatal("metadata ops counted as reads")
	}
	s.ResetCounters()
	br, bw, r, w = s.Counters()
	if br+bw+r+w != 0 {
		t.Fatal("reset failed")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewLocalStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			for j := 0; j < 200; j++ {
				s.Overwrite(name, []byte{byte(j)})
				_, _ = s.Get(name)
				s.List("")
			}
		}(i)
	}
	wg.Wait()
}

// TestStoreViewLendsWithoutCopying: View hands fn the stored slice itself
// (no allocation), counts as a read like Get, and reports a missing name
// without calling fn.
func TestStoreViewLendsWithoutCopying(t *testing.T) {
	s := NewLocalStore()
	run := []byte("a stored run")
	s.OverwriteOwned("k", run)
	var seen []byte
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.View("k", func(data []byte) { seen = data }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("View allocated %.0f times, want 0", allocs)
	}
	if &seen[0] != &run[0] || len(seen) != len(run) {
		t.Fatal("View handed fn a copy, not the stored slice")
	}
	if read, _, reads, _ := s.Counters(); reads != 11 || read != int64(11*len(run)) {
		t.Fatalf("read accounting: %d bytes in %d reads, want 11 reads of %d", read, reads, len(run))
	}
	called := false
	if err := s.View("missing", func([]byte) { called = true }); !errors.Is(err, ErrNotFound) || called {
		t.Fatalf("View of a missing object: err=%v, fn called=%v", err, called)
	}
}

// TestStoreViewAgainstWriters runs borrowers against OverwriteOwned and
// Delete of the same names. Under -race this is the check that a lent
// slice is never written while lent; in any mode fn must see one whole
// version of the object, never a mixture.
func TestStoreViewAgainstWriters(t *testing.T) {
	s := NewLocalStore()
	names := []string{"a", "b", "c"}
	version := func(v byte) []byte {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = v
		}
		return data
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				name := names[(j+w)%len(names)]
				if j%5 == 4 {
					_ = s.Delete(name) // may already be gone
				} else {
					s.OverwriteOwned(name, version(byte(j)))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				name := names[(j+r)%len(names)]
				err := s.View(name, func(data []byte) {
					for _, c := range data {
						if c != data[0] {
							t.Errorf("View of %s saw bytes of two versions", name)
							return
						}
					}
				})
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
				}
				_, _ = s.Get(name)
				_, _ = s.Size(name)
				s.Exists(name)
			}
		}(r)
	}
	wg.Wait()
}
