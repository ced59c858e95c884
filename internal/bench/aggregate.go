package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// AggregateMeasure runs the aggregate tier's exact-vs-approx cost/error
// curves on the fixture terrain: per summary-carrying index family and
// selectivity, one 64-query rotation through the exact pipeline (the
// Aggregate/<label>/.../exact rows, the same filter+refinement cost the
// value-range suite gates) and one through the field summary at unlimited
// tolerance (the .../approx rows, whose err_bound and err_true record the
// mean certified bound and the mean true error of the fraction estimate).
// Every approximate answer is cross-checked against the exact pipeline's
// fraction on the spot — an answer outside its own certified bound fails the
// measurement, so the gated rows double as the tier's correctness sweep. A
// non-positive side selects the fixture default.
func AggregateMeasure(side int) (map[string]Row, error) {
	if side <= 0 {
		side = FixtureSide
	}
	f, err := FixtureTerrain(side, 0)
	if err != nil {
		return nil, err
	}
	vr := f.ValueRange()
	specs := []struct {
		label string
		build func(pager *storage.Pager) (core.Engine, error)
	}{
		{"I-Hilbert", func(pager *storage.Pager) (core.Engine, error) {
			return core.Build(context.Background(), f, pager, core.BuildOptions{Method: core.MethodIHilbert})
		}},
		{"Tiled-LinearScan/packed", func(pager *storage.Pager) (core.Engine, error) {
			return core.Build(context.Background(), f, pager, tiledPacked(side))
		}},
	}
	rows := map[string]Row{}
	for _, spec := range specs {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.build(pager)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.label, err)
		}
		for _, sel := range Selectivities {
			queries := FixtureQueries(vr, sel, 64)
			base := fmt.Sprintf("Aggregate/%s/side=%d/sel=%.2f", spec.label, side, sel)

			exactArea := make([]float64, len(queries))
			var exSimNs, exPages float64
			start := time.Now()
			for i, q := range queries {
				res, err := idx.Query(q)
				if err != nil {
					return nil, fmt.Errorf("%s/exact: %w", base, err)
				}
				exactArea[i] = res.MatchedCellArea
				exSimNs += float64(res.IO.SimElapsed.Nanoseconds())
				exPages += float64(res.IO.Reads)
			}
			n := float64(len(queries))
			rows[base+"/exact"] = Row{
				NsOp:    float64(time.Since(start).Nanoseconds()) / n,
				PagesOp: exPages / n,
				SimNsOp: exSimNs / n,
			}

			var apSimNs, apPages, errBound, errTrue float64
			start = time.Now()
			for i, q := range queries {
				res, err := idx.AggregateContext(context.Background(), q, math.Inf(1))
				if err != nil {
					return nil, fmt.Errorf("%s/approx: %w", base, err)
				}
				if !res.Approx || res.Fallback {
					return nil, fmt.Errorf("%s/approx: query %d fell back to the exact pipeline", base, i)
				}
				if res.TotalArea <= 0 {
					return nil, fmt.Errorf("%s/approx: query %d has no area denominator", base, i)
				}
				diff := math.Abs(res.Fraction - exactArea[i]/res.TotalArea)
				if diff > res.FractionBound+1e-9 {
					return nil, fmt.Errorf("%s/approx: query %d error %.3g exceeds certified bound %.3g",
						base, i, diff, res.FractionBound)
				}
				errBound += res.FractionBound
				errTrue += diff
				apSimNs += float64(res.IO.SimElapsed.Nanoseconds())
				apPages += float64(res.IO.Reads)
			}
			rows[base+"/approx"] = Row{
				NsOp:     float64(time.Since(start).Nanoseconds()) / n,
				PagesOp:  apPages / n,
				SimNsOp:  apSimNs / n,
				ErrBound: errBound / n,
				ErrTrue:  errTrue / n,
			}
		}
	}
	return rows, nil
}
