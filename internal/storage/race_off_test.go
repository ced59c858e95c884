//go:build !race

package storage

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
