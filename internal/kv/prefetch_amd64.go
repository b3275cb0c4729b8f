package kv

// Prefetch asks the CPU to start loading the cache lines holding b[0],
// b[64], b[128], … and returns at once: PREFETCHT0, which neither faults
// nor waits, one a line in a single call.
//
//go:noescape
func Prefetch(b []byte)
