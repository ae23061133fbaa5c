//go:build race

package plugins

// raceEnabled reports whether the race detector is active. It slows the
// interpreter by roughly an order of magnitude and has nothing to find in a
// single-goroutine replay, so TestReferenceGuestEquivalence runs its short
// corpus under it (make check-flake runs this package 40 times).
const raceEnabled = true
