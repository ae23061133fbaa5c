//go:build !race

package e2

const raceEnabled = false
