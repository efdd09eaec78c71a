//go:build race

package core

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a random share of Puts, so the steady-state
// allocation tests log their counts instead of enforcing budgets.
const raceEnabled = true
