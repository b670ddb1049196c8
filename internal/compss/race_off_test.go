//go:build !race

package compss

const raceEnabled = false
