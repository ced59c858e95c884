//go:build race

package storage

// raceEnabled reports whether the race detector instruments this build; under
// it sync.Pool drops a share of what it is handed at random, so an allocation
// count is not reproducible run to run.
const raceEnabled = true
