package jobtracker

import (
	"sort"
	"sync"
)

// DWRR arbitrates one slot kind (the map slots or the reduce slots)
// across jobs by deficit-weighted round-robin: every job accumulates
// credit (its weight) each time the live set runs dry of credit, each
// dispatched attempt costs one, and dispatch always tries the job with
// the most unspent credit first. Over time each job with work receives
// slots proportional to its weight, and a job that was briefly idle
// does not bank unbounded credit (its deficit resets while it has no
// dispatchable work — classic DWRR empty-queue semantics).
type DWRR struct {
	mu    sync.Mutex
	flows map[string]*flow
	order []string // registration order, the round-robin tiebreak
}

type flow struct {
	weight  int64
	deficit int64
}

// NewDWRR returns an empty arbiter.
func NewDWRR() *DWRR {
	return &DWRR{flows: make(map[string]*flow)}
}

// Add registers a job with the given weight (minimum 1). Re-adding an
// existing id only updates its weight.
func (d *DWRR) Add(id string, weight int64) {
	if weight < 1 {
		weight = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.flows[id]; ok {
		f.weight = weight
		return
	}
	d.flows[id] = &flow{weight: weight}
	d.order = append(d.order, id)
}

// Remove deregisters a finished job.
func (d *DWRR) Remove(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.flows[id]; !ok {
		return
	}
	delete(d.flows, id)
	for i, o := range d.order {
		if o == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Candidates returns the registered jobs that currently have
// dispatchable work, ordered most-deficit first (registration order
// breaks ties). Jobs without work have their deficit reset; when no
// active job has positive deficit, every active job is replenished by
// its weight first.
func (d *DWRR) Candidates(hasWork func(id string) bool) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var active []string
	maxDeficit := int64(-1 << 62)
	for _, id := range d.order {
		if hasWork(id) {
			active = append(active, id)
			if f := d.flows[id]; f.deficit > maxDeficit {
				maxDeficit = f.deficit
			}
		} else {
			d.flows[id].deficit = 0
		}
	}
	if len(active) == 0 {
		return nil
	}
	if maxDeficit <= 0 {
		for _, id := range active {
			f := d.flows[id]
			f.deficit += f.weight
		}
	}
	idx := make(map[string]int, len(d.order))
	for i, id := range d.order {
		idx[id] = i
	}
	sort.SliceStable(active, func(i, j int) bool {
		fi, fj := d.flows[active[i]], d.flows[active[j]]
		if fi.deficit != fj.deficit {
			return fi.deficit > fj.deficit
		}
		return idx[active[i]] < idx[active[j]]
	})
	return active
}

// Charge spends n credit from job id (one per dispatched attempt).
func (d *DWRR) Charge(id string, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.flows[id]; ok {
		f.deficit -= n
	}
}
