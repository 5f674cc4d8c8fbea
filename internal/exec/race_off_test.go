//go:build !race

package exec

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
