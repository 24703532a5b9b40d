//go:build race

package obs

// raceEnabled reports a build with the race detector, whose instrumentation
// makes wall-clock assertions meaningless.
const raceEnabled = true
