//go:build race

package cdg

// raceEnabled reports a -race build, whose instrumentation skews timing
// gates.
const raceEnabled = true
