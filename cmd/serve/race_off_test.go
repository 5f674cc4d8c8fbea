//go:build !race

package main

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
