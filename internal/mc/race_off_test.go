//go:build !race

package mc_test

// raceEnabled reports whether the race detector instruments the test binary.
const raceEnabled = false
