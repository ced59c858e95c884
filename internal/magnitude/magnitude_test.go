package magnitude

import (
	"errors"
	"math"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

func newPager() *storage.Pager {
	return storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 8192)
}

func windField(t *testing.T, side int) *field.VectorField {
	t.Helper()
	u, err := grid.FromFunc(geom.Pt(0, 0), 1, 1, side, side, func(x, y float64) float64 {
		return 8 * math.Sin(x/7) * math.Cos(y/9)
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := grid.FromFunc(geom.Pt(0, 0), 1, 1, side, side, func(x, y float64) float64 {
		return 6*math.Cos(x/5) + 2
	})
	if err != nil {
		t.Fatal(err)
	}
	vf, err := field.NewVectorField(u, v)
	if err != nil {
		t.Fatal(err)
	}
	return vf
}

func TestMagnitudeFilterIsConservative(t *testing.T) {
	vf := windField(t, 32)
	ix, err := Build(vf, newPager(), Options{RefineGrid: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The greedy partition over the curve-ordered magnitude bounds: pinned.
	if ix.NumGroups() != 74 {
		t.Fatalf("groups = %d, want 74", ix.NumGroups())
	}
	// Ground truth by dense sampling: cells containing any point with
	// magnitude in the band.
	q := geom.Interval{Lo: 5, Hi: 7}
	truth := map[field.CellID]bool{}
	const dense = 8
	var c field.Cell
	for id := 0; id < vf.NumCells(); id++ {
		vf.Component(0).Cell(field.CellID(id), &c)
		b := c.Bounds()
		for i := 0; i < dense && !truth[field.CellID(id)]; i++ {
			for j := 0; j < dense; j++ {
				p := geom.Pt(
					b.Min.X+(float64(i)+0.5)/dense*b.Width(),
					b.Min.Y+(float64(j)+0.5)/dense*b.Height(),
				)
				if m, ok := vf.MagnitudeAt(p); ok && q.Contains(m) {
					truth[field.CellID(id)] = true
					break
				}
			}
		}
	}
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Conservativeness: every true cell is among the candidates.
	cand := map[field.CellID]bool{}
	for _, id := range res.CandidateCells {
		cand[id] = true
	}
	for id := range truth {
		if !cand[id] {
			t.Fatalf("true answer cell %d missed by the filter", id)
		}
	}
	if len(res.MatchedCells) == 0 {
		t.Fatal("no matched cells")
	}
	if res.Area <= 0 {
		t.Fatal("no answer area")
	}
	// The filter must actually filter: candidates well below cell count.
	if len(res.CandidateCells) >= vf.NumCells() {
		t.Fatalf("filter selected everything (%d cells)", len(res.CandidateCells))
	}
	if _, err := ix.Query(geom.EmptyInterval()); !errors.Is(err, errEmptyQuery) {
		t.Fatalf("empty query err = %v, want errEmptyQuery", err)
	}
}

func TestMagnitudeAreaConvergesWithRefinement(t *testing.T) {
	vf := windField(t, 16)
	q := geom.Interval{Lo: 4, Hi: 8}
	var areas []float64
	for _, k := range []int{2, 6, 12} {
		ix, err := Build(vf, newPager(), Options{RefineGrid: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		areas = append(areas, res.Area)
	}
	// Estimates at different densities agree closely (the band here covers
	// smooth cells, so even coarse lattices are near the limit value).
	for i := 1; i < len(areas); i++ {
		if math.Abs(areas[i]-areas[0]) > 0.02*areas[0] {
			t.Fatalf("refinement estimates diverge: %v", areas)
		}
	}
}
