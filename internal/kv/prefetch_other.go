//go:build !amd64

package kv

// prefetch is a hint with no portable form: elsewhere it does nothing.
func prefetch(*byte) {}
