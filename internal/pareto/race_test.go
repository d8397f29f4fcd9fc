//go:build race

package pareto

// raceEnabled is true when the race detector instruments the test binary.
// It checks every byte a memmove touches, so wall-clock bounds do not hold.
const raceEnabled = true
