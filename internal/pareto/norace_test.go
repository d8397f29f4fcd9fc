//go:build !race

package pareto

// raceEnabled is true when the race detector instruments the test binary.
const raceEnabled = false
