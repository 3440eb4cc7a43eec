//go:build race

package main

// raceEnabled reports whether the race detector is active; its
// instrumentation inflates allocation counts, so alloc-budget
// assertions skip themselves under -race.
const raceEnabled = true
