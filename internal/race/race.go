//go:build !race

// Package race reports whether the race detector is compiled in. Tests
// that count allocations read it: under the detector sync.Pool drops a
// share of its puts at random, so a pooled buffer may be rebuilt in the
// middle of a measurement.
package race

// Enabled is true when the binary is built with -race.
const Enabled = false
