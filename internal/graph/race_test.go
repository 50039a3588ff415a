//go:build race

package graph

// raceEnabled reports a -race build, whose instrumentation adds bytes to
// every allocation that byte-counting tests measure.
const raceEnabled = true
