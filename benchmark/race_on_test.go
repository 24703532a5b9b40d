//go:build race

package main

// raceEnabled reports a build with the race detector, whose instrumentation
// stretches every event by microseconds at random and makes wall-clock
// sampling assertions meaningless.
const raceEnabled = true
