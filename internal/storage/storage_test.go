package storage

import (
	"errors"
	"sync"
	"sync/atomic"
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

// TestStoreCopiesData pins where the one copy is: Put copies the caller's
// buffer on the way in, and Get copies nothing on the way out — every
// reader is handed the same stored slice, with no spare capacity to
// append into.
func TestStoreCopiesData(t *testing.T) {
	s := NewLocalStore()
	data := []byte("mutable")
	_ = s.Put("k", data)
	data[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "mutable" {
		t.Fatal("store aliases caller buffer")
	}
	again, _ := s.Get("k")
	if &again[0] != &got[0] || len(again) != len(got) {
		t.Fatal("two Gets of one object returned different slices: Get copied")
	}
	if cap(got) != len(got) {
		t.Fatalf("cap %d != len %d: an append could write behind the stored object", cap(got), len(got))
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

// TestStoreOverwriteCopiesOwnedDoesNot pins the two write contracts side
// by side: Overwrite keeps a copy, OverwriteOwned keeps the caller's slice
// (no allocation at all), and Get lends that very slice, capacity clamped
// even when the producer left some spare.
func TestStoreOverwriteCopiesOwnedDoesNot(t *testing.T) {
	s := NewLocalStore()
	data := []byte("mutable")
	s.Overwrite("copied", data)
	data[0] = 'X'
	if got, _ := s.Get("copied"); string(got) != "mutable" {
		t.Fatal("Overwrite aliases the caller's buffer")
	}

	run := append(make([]byte, 0, 64), "a freshly encoded run"...)
	if allocs := testing.AllocsPerRun(10, func() { s.OverwriteOwned("owned", run) }); allocs != 0 {
		t.Fatalf("OverwriteOwned allocated %.0f times, want 0", allocs)
	}
	got, _ := s.Get("owned")
	if &got[0] != &run[0] || len(got) != len(run) {
		t.Fatal("Get of an owned object is not the slice that was handed over")
	}
	if cap(got) != len(got) {
		t.Fatalf("cap %d != len %d", cap(got), len(got))
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewLocalStore()
	_ = s.Put("k", nil)
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Size("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("still exists after delete: %v", err)
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

// TestStoreGetBorrows: Get hands out the stored slice itself (no
// allocation), and a slice once borrowed keeps reading the version it was
// after its name is replaced and after it is deleted.
func TestStoreGetBorrows(t *testing.T) {
	s := NewLocalStore()
	run := []byte("a stored run")
	s.OverwriteOwned("k", run)
	var held []byte
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if held, err = s.Get("k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %.0f times, want 0", allocs)
	}
	if &held[0] != &run[0] || len(held) != len(run) {
		t.Fatal("Get returned a copy, not the stored slice")
	}
	s.Overwrite("k", []byte("its replacement"))
	if string(held) != "a stored run" {
		t.Fatalf("held slice reads %q after its name was replaced", held)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if string(held) != "a stored run" {
		t.Fatalf("held slice reads %q after its name was deleted", held)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a deleted object: %v", err)
	}
}

// scribbler is a Pinned owner standing in for a registered slab block:
// on release its span goes back to be carved for another writer, which
// overwrites it at once. It counts its releases.
type scribbler struct {
	data     []byte
	released atomic.Int32
}

func (p *scribbler) Release() {
	p.released.Add(1)
	for i := range p.data {
		p.data[i] = byte(i) // the next owner's bytes: never one whole version
	}
}

// TestStoreBorrowersAgainstWriters runs borrowers against OverwriteOwned,
// OverwritePinned, Demote and Delete of the same names. Each borrower
// keeps its slice across its next few reads — past the replacement and
// deletion of the name — and then checks it: it must still be one whole
// version, never a mixture, even when the version was pinned and its
// owner has scribbled over the bytes since. Under -race this is also the
// check that nothing in the store writes a slice it has lent, and that no
// Get reads pinned bytes after the store let go of them.
func TestStoreBorrowersAgainstWriters(t *testing.T) {
	s := NewLocalStore()
	names := []string{"a", "b", "c"}
	version := func(v byte) []byte {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = v
		}
		return data
	}
	var mu sync.Mutex
	var owners []*scribbler
	whole := func(data []byte) bool {
		for _, c := range data {
			if c != data[0] {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				name := names[(j+w)%len(names)]
				switch j % 5 {
				case 4:
					_ = s.Delete(name) // may already be gone
				case 1, 2:
					p := &scribbler{data: version(byte(j))}
					mu.Lock()
					owners = append(owners, p)
					mu.Unlock()
					s.OverwritePinned(name, p.data, p)
					if j%5 == 2 {
						s.Demote(name, p) // may already be replaced
					}
				default:
					s.OverwriteOwned(name, version(byte(j)))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held [8][]byte // a ring of borrowed slices, checked when overwritten
			for j := 0; j < 400; j++ {
				name := names[(j+r)%len(names)]
				data, err := s.Get(name)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
				}
				if err == nil && cap(data) != len(data) {
					t.Errorf("Get of %s: cap %d != len %d", name, cap(data), len(data))
				}
				if old := held[j%len(held)]; !whole(old) {
					t.Errorf("a slice borrowed %d reads ago now holds bytes of two versions", len(held))
					return
				}
				held[j%len(held)] = data
				_, _ = s.Size(name)
			}
			for _, old := range held {
				if !whole(old) {
					t.Error("a held slice holds bytes of two versions")
				}
			}
		}(r)
	}
	wg.Wait()
	for _, name := range names {
		_ = s.Delete(name)
	}
	for _, p := range owners {
		if n := p.released.Load(); n != 1 {
			t.Fatalf("a pinned owner was released %d times, want exactly once", n)
		}
	}
}

// TestStorePinnedReleasedOnce: the store drops its reference to a pinned
// object exactly once, whichever way it lets go of it — Delete, an
// overwrite of any kind, or Demote — and never for a Demote naming an
// owner the name no longer holds. A demoted object keeps its bytes, now
// the store's own.
func TestStorePinnedReleasedOnce(t *testing.T) {
	s := NewLocalStore()
	pin := func(name, text string) *scribbler {
		p := &scribbler{data: []byte(text)}
		s.OverwritePinned(name, p.data, p)
		return p
	}
	for _, tc := range []struct {
		name   string
		letGo  func(p *scribbler)
		stored string // what the name holds afterwards ("" when gone)
	}{
		{"Delete", func(*scribbler) { _ = s.Delete("k") }, ""},
		{"Overwrite", func(*scribbler) { s.Overwrite("k", []byte("heap")) }, "heap"},
		{"OverwriteOwned", func(*scribbler) { s.OverwriteOwned("k", []byte("owned")) }, "owned"},
		{"OverwritePinned", func(*scribbler) { pin("k", "re-run") }, "re-run"},
		{"Demote", func(p *scribbler) {
			if !s.Demote("k", p) {
				t.Fatal("Demote of the object the name holds refused")
			}
		}, "pinned run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pin("k", "pinned run")
			if s.Owner("k") != p {
				t.Fatal("Owner does not name the pinned object's owner")
			}
			if got, _ := s.Get("k"); string(got) != "pinned run" || &got[0] == &p.data[0] {
				t.Fatalf("Get of a pinned object = %q, aliasing its bytes = %v", got, &got[0] == &p.data[0])
			}
			tc.letGo(p)
			if n := p.released.Load(); n != 1 {
				t.Fatalf("released %d times, want 1", n)
			}
			if s.Demote("k", p) {
				t.Fatal("Demote of an owner the name no longer holds succeeded")
			}
			got, err := s.Get("k")
			if tc.stored == "" {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get after Delete: %q, %v", got, err)
				}
			} else if string(got) != tc.stored {
				t.Fatalf("name holds %q, want %q", got, tc.stored)
			}
			_ = s.Delete("k")
			if n := p.released.Load(); n != 1 {
				t.Fatalf("released %d times after the name was deleted, want 1", n)
			}
		})
	}
}

// AllKinds lists the storage configurations in legend order.
func AllKinds() []DeviceKind { return []DeviceKind{HDD1, HDD2, SSD} }
