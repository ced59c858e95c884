package bench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// TestApproxMeasureSmoke gates the approximate tier's headline claims on the
// real fixture workload without the full fieldbench run: every approx row
// answers from the ≤4-page summary, the selective rotation's page win over
// the exact pipeline is at least 10×, the true error stays inside the
// certified bound (AggregateMeasure itself fails otherwise), and a tolerance
// the summary cannot certify falls back to the exact answer. Under -short
// the terrain shrinks.
func TestApproxMeasureSmoke(t *testing.T) {
	side := FixtureSide
	if testing.Short() {
		side = 128
	}
	rows, err := AggregateMeasure(side)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * len(Selectivities); len(rows) != want {
		t.Fatalf("AggregateMeasure(%d) returned %d rows, want %d: %s", side, len(rows), want, rowNames(rows))
	}
	for _, label := range []string{"I-Hilbert", "Tiled-LinearScan/packed"} {
		for _, sel := range Selectivities {
			base := fmt.Sprintf("Aggregate/%s/side=%d/sel=%.2f", label, side, sel)
			exact, ok := rows[base+"/exact"]
			if !ok {
				t.Fatalf("missing row %s/exact; have %s", base, rowNames(rows))
			}
			approx, ok := rows[base+"/approx"]
			if !ok {
				t.Fatalf("missing row %s/approx; have %s", base, rowNames(rows))
			}
			// The summary is a fixed run of pages: no approximate answer may
			// cost more physical reads than that, at any selectivity.
			if approx.PagesOp > 4 {
				t.Errorf("%s/approx reads %.2f pages/op, want <= 4", base, approx.PagesOp)
			}
			if approx.ErrTrue > approx.ErrBound+1e-12 {
				t.Errorf("%s/approx mean true error %.3g exceeds mean certified bound %.3g",
					base, approx.ErrTrue, approx.ErrBound)
			}
			if exact.PagesOp <= 0 || exact.SimNsOp <= 0 {
				t.Errorf("%s/exact has empty metrics: %+v", base, exact)
			}
			// The headline claim: at the selective end the summary answers for
			// at least 10× fewer pages than the exact filter+refinement walk.
			if sel == 0.01 && exact.PagesOp < 10*approx.PagesOp {
				t.Errorf("%s: exact %.1f pages/op vs approx %.1f — less than the 10x win",
					base, exact.PagesOp, approx.PagesOp)
			}
		}
	}
}

// TestApproxMeasureFallback pins the other half of the contract on the same
// fixture the measurement uses: a tolerance far below what the summary can
// certify for a mid-band query must fall back to the exact pipeline and
// return the exact count with zero residual bounds.
func TestApproxMeasureFallback(t *testing.T) {
	f, err := FixtureTerrain(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
	idx, err := core.Build(context.Background(), f, pager, core.BuildOptions{Method: core.MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	for _, q := range FixtureQueries(vr, 0.05, 8) {
		exact, err := idx.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := idx.AggregateContext(context.Background(), q, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback {
			if res.Count != float64(exact.CellsMatched) || res.CountBound != 0 {
				t.Fatalf("fallback for %v returned count %.0f (bound %.3g), exact matched %d",
					q, res.Count, res.CountBound, exact.CellsMatched)
			}
		} else if res.FractionBound > 1e-12 {
			t.Fatalf("query %v stayed approximate with bound %.3g above the 1e-12 tolerance",
				q, res.FractionBound)
		}
		loose, err := idx.AggregateContext(context.Background(), q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !loose.Approx || loose.Fallback {
			t.Fatalf("unlimited tolerance fell back for %v: %+v", q, loose)
		}
	}
}
