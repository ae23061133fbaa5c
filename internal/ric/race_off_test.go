//go:build !race

package ric

const raceEnabled = false
