package httpshuffle

import (
	"bytes"
	"math/rand"
	"testing"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/config"
	"rdmamr/internal/mapred"
)

// TestServletFetchAllocBudget: the baseline pays for exactly one copy of a
// partition between the tracker's disk and the reducer's buffer — the
// socket copy — and it must stay one: the reducer owns what it receives
// (it is not the stored run), and the stored run is read in place.
func TestServletFetchAllocBudget(t *testing.T) {
	engine := New()
	c, err := mapred.NewCluster(1, config.New(), engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tt := c.Trackers()[0]
	run := make([]byte, 1<<20) // the servlet does not parse what it serves
	rand.New(rand.NewSource(1)).Read(run)
	tt.Store().OverwriteOwned(mapred.MapOutputKey("job_t", 0, 0), run)
	s, err := engine.servlet(tt.Host())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	allocated := alloctest.Bytes(5, func() {
		if got, err = s.fetch("job_t", 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(len(run) + 1<<10); allocated > budget {
		t.Errorf("fetch of a %d-byte partition allocated %d bytes, budget %d", len(run), allocated, budget)
	}
	if allocated < uint64(len(run)) {
		t.Errorf("fetch of a %d-byte partition allocated only %d bytes: the socket copy is gone", len(run), allocated)
	}
	if !bytes.Equal(got, run) || &got[0] == &run[0] {
		t.Fatal("fetch must return a copy of the stored run")
	}
}
