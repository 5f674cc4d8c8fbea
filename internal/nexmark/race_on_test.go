//go:build race

package nexmark

// raceEnabled reports that the race detector is instrumenting this build.
// The bench harnesses run at reduced scale under -race: instrumentation slows
// them by an order of magnitude, their wall-clock bars never arm there, and
// full scale belongs to `make bench-live` / `make bench-recovery`.
const raceEnabled = true
