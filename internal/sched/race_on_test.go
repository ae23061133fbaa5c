//go:build race

package sched

// raceEnabled reports whether the race detector is active; it drops
// sync.Pool items at random, so allocation pins are skipped under it.
const raceEnabled = true
