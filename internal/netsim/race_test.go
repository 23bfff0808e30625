//go:build race

package netsim

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
