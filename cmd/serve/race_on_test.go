//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this build.
// Allocation pins skip there: it drops sync.Pool entries at random, so a
// pooled buffer is sometimes allocated afresh.
const raceEnabled = true
