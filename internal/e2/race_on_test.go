//go:build race

package e2

// raceEnabled reports whether the race detector is active; it allocates on
// its own, so the allocation pins skip under it.
const raceEnabled = true
