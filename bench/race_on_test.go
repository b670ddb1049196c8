//go:build race

package main

// raceDetector tells the smoke test not to hold quick runs to their time
// limit: the detector slows them several times over.
const raceDetector = true
