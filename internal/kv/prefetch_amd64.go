package kv

// prefetch asks the CPU to start loading the cache line holding *p and
// returns at once: PREFETCHT0, which neither faults nor waits.
//
//go:noescape
func prefetch(p *byte)
