//go:build !race

package tvr

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
