//go:build !race

package workload

// raceEnabled reports a build under the race detector.
const raceEnabled = false
