//go:build race

package fuzz

// raceEnabled lets the heaviest corpus walks take a subsample under the
// race detector, which slows them about fifteenfold.
const raceEnabled = true
