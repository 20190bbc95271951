//go:build race

package telemetry

// raceEnabled reports whether the race detector, which makes sync.Pool drop
// entries at random, is compiled in.
const raceEnabled = true
