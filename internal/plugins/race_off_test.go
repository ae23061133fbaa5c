//go:build !race

package plugins

const raceEnabled = false
