//go:build !race

package storage

// raceWritten is a no-op without the race detector.
func raceWritten([][]byte) {}
