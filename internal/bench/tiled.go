package bench

import (
	"context"
	"fmt"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// Large-terrain scale-out suite parameters. The terrain is 16× the cells of
// the fixture's 256×256 grid — big enough that tile pruning, not constant
// factors, decides the page counts — and the tile side cuts it into an 8×8
// tile grid.
const (
	// TiledSide is the large terrain's edge in cells.
	TiledSide = 1024
	// TiledQueries is the rotation length per cell; shorter than the solo
	// suite's 64 because each untiled query reads tens of thousands of pages.
	TiledQueries = 16
)

// tiledPacked is the tiled configuration of the gated rows: LinearScan tiles
// an eighth of the terrain wide, packed sidecars.
func tiledPacked(side int) core.BuildOptions {
	return core.BuildOptions{Method: core.MethodLinearScan, TileSide: side / 8, Codec: storage.SidecarCodecPacked}
}

// TiledMeasure runs the deterministic large-terrain suite: the same value
// queries answered by the untiled LinearScan and by the tiled scatter-gather
// planner (LinearScan tiles, packed sidecars), on a side×side terrain
// (TiledSide when side <= 0). Row names carry the side, so rows measured at
// a different scale never silently gate against each other. The suite also
// cross-checks that both methods return identical answer counts per query —
// a benchmark that measured different answers would gate nothing.
func TiledMeasure(side int) (map[string]Row, error) {
	if side <= 0 {
		side = TiledSide
	}
	f, err := FixtureTerrain(side, 0)
	if err != nil {
		return nil, err
	}
	vr := f.ValueRange()
	specs := []struct {
		label string
		build func(pager *storage.Pager) (core.Index, error)
	}{
		{"LinearScan", func(pager *storage.Pager) (core.Index, error) {
			return core.Build(context.Background(), f, pager, core.BuildOptions{Method: core.MethodLinearScan})
		}},
		{"Tiled-LinearScan/packed", func(pager *storage.Pager) (core.Index, error) {
			return core.Build(context.Background(), f, pager, tiledPacked(side))
		}},
	}
	rows := map[string]Row{}
	matched := map[string][]int{}
	for _, spec := range specs {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.build(pager)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.label, err)
		}
		for _, sel := range Selectivities {
			queries := FixtureQueries(vr, sel, TiledQueries)
			name := fmt.Sprintf("Tiled/%s/side=%d/sel=%.2f", spec.label, side, sel)
			counts := make([]int, len(queries))
			var simNs, pages float64
			start := time.Now()
			for i, q := range queries {
				res, err := idx.Query(q)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				counts[i] = res.CellsMatched
				simNs += float64(res.IO.SimElapsed.Nanoseconds())
				pages += float64(res.IO.Reads)
			}
			key := fmt.Sprintf("sel=%.2f", sel)
			if prev, ok := matched[key]; ok {
				for i := range counts {
					if counts[i] != prev[i] {
						return nil, fmt.Errorf("%s: query %d matched %d cells, baseline matched %d",
							name, i, counts[i], prev[i])
					}
				}
			} else {
				matched[key] = counts
			}
			n := float64(len(queries))
			rows[name] = Row{
				NsOp:    float64(time.Since(start).Nanoseconds()) / n,
				PagesOp: pages / n,
				SimNsOp: simNs / n,
			}
		}
	}
	return rows, nil
}
