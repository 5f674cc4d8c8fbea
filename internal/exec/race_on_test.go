//go:build race

package exec

// raceEnabled reports that the race detector is instrumenting this build.
// Allocation pins that count per-group heap objects skip there: the
// detector's instrumentation changes what escapes and what the runtime
// allocates.
const raceEnabled = true
