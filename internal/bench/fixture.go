package bench

import (
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/workload"
)

// The deterministic benchmark fixture. Every suite — the solo value-range
// rotation, the concurrent batches, the update-load interleave and the figure
// experiments — measures the same fractal terrain, so rows compare one
// dataset across suites and across baseline sections.
const (
	// FixtureSide is the default terrain edge in cells (the paper's 256×256
	// evaluation grid).
	FixtureSide = 256
	// FixtureSeed seeds the fractal generator; the query rotations derive
	// their seeds from it so a fixture change re-seeds everything coherently.
	FixtureSeed = 4217
)

// FixtureTerrain builds the suite's deterministic terrain. A non-positive
// side or a zero seed selects the fixture default, so call sites spell out
// only what they vary.
func FixtureTerrain(side int, seed int64) (*grid.DEM, error) {
	if side <= 0 {
		side = FixtureSide
	}
	if seed == 0 {
		seed = FixtureSeed
	}
	return workload.Terrain(side, seed)
}

// FixtureQueries is the deterministic 64-query rotation every suite runs per
// (method, selectivity) cell, seeded off the fixture seed and the
// selectivity so distinct cells never share a rotation.
func FixtureQueries(vr geom.Interval, sel float64, count int) []geom.Interval {
	return workload.Queries(vr, sel, count, FixtureSeed+int64(sel*1e6))
}
