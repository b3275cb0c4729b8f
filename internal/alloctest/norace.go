//go:build !race

package alloctest

// Race reports that the race detector is on; see race.go.
const Race = false
