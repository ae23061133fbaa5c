package core

// RaceEnabled lets this package's external tests skip wall-clock checks
// under the race detector.
const RaceEnabled = raceEnabled
