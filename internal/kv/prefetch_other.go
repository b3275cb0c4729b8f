//go:build !amd64

package kv

// Prefetch is a hint with no portable form: elsewhere it does nothing.
func Prefetch([]byte) {}
