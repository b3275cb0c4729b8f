// Package alloctest measures heap allocation for the tests that hold a
// code path to an allocation budget (`make alloc-budgets`), in bytes —
// a re-introduced copy is one allocation like any other and only shows in
// the bytes — and, for paths whose budget is a count, in allocations.
package alloctest

import "runtime"

// Bytes runs fn the given number of times and returns the fewest heap
// bytes one run allocated, process-wide. TotalAlloc only grows, so a
// collection in the middle does not disturb it; other goroutines (a live
// cluster's heartbeats) can only add, which is why the minimum is taken.
func Bytes(runs int, fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// Allocs is Bytes counting heap allocations instead of bytes: the fewest
// one run of fn made, process-wide.
func Allocs(runs int, fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
