//go:build race

package compss

// raceEnabled skips allocation budgets: the race detector instruments
// allocations and adds its own.
const raceEnabled = true
