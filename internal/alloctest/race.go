//go:build race

package alloctest

// Race reports that the race detector is on. sync.Pool then drops a
// quarter of what it is given, so a budget that counts on pooled buffers
// coming back cannot hold and its test skips.
const Race = true
