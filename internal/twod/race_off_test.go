//go:build !race

package twod

// raceEnabled reports whether the tests run under the race detector, whose
// shadow memory and instrumentation skew heap measurements.
const raceEnabled = false
