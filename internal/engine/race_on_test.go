//go:build race

package engine_test

// raceEnabled reports whether the race detector is active. Race
// instrumentation changes what allocates, so allocation-budget tests skip
// themselves under -race; CI enforces the budgets in a separate non-race
// step.
const raceEnabled = true
