package bench

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/fractal"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

// TestBaselines: each related-work baseline answers as a brute-force scan
// does, its filter is exact on cell intervals (every fetched cell matches),
// it refuses an empty interval, and its scattered fetches pay more random
// reads than I-Hilbert's subfield runs — the paper's critique (§2.3).
func TestBaselines(t *testing.T) {
	heights, err := fractal.DiamondSquare(64, 0.8, 1234)
	if err != nil {
		t.Fatal(err)
	}
	fractal.Normalize(heights, 0, 100)
	d, err := grid.New(geom.Pt(0, 0), 1, 1, 64, 64, heights)
	if err != nil {
		t.Fatal(err)
	}
	newPager := func() *storage.Pager {
		return storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 8192)
	}
	ih, err := core.Build(context.Background(), d, newPager(), core.BuildOptions{Method: core.MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		method core.Method
		build  func(field.Field, *storage.Pager) (core.Index, error)
		groups int
	}{
		{"I-IntTree", buildIntervalTree, d.NumCells()},
		{"IP-Row", buildIPRow, 64},
	} {
		t.Run(string(row.method), func(t *testing.T) {
			ix, err := row.build(d, newPager())
			if err != nil {
				t.Fatal(err)
			}
			if st := ix.Stats(); ix.Method() != row.method || st.Method != row.method ||
				st.Cells != d.NumCells() || st.Groups != row.groups || st.IndexPages != 0 {
				t.Fatalf("%s: stats = %+v", ix.Method(), st)
			}
			rng := rand.New(rand.NewSource(4))
			vr := d.ValueRange()
			var randReads, ihRandReads int
			for trial := 0; trial < 25; trial++ {
				lo := vr.Lo + rng.Float64()*vr.Length()*0.9
				q := geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.1}
				wantCells, wantArea := bruteForce(d, q)
				res, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.CellsMatched != wantCells || res.CellsFetched != res.CellsMatched {
					t.Fatalf("query %v: fetched %d, matched %d, want %d", q, res.CellsFetched, res.CellsMatched, wantCells)
				}
				if math.Abs(res.Area-wantArea) > 1e-6*(1+wantArea) {
					t.Fatalf("query %v: area %g, want %g", q, res.Area, wantArea)
				}
				ihRes, err := ih.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				randReads += res.IO.RandReads
				ihRandReads += ihRes.IO.RandReads
			}
			if randReads <= ihRandReads {
				t.Fatalf("random reads %d, I-Hilbert's %d: want more", randReads, ihRandReads)
			}
			if _, err := ix.Query(geom.EmptyInterval()); err == nil {
				t.Fatal("empty query accepted")
			}
		})
	}
}

// bruteForce counts the cells of f whose interval meets q and sums their
// band areas.
func bruteForce(f field.Field, q geom.Interval) (cells int, area float64) {
	var c field.Cell
	for id := 0; id < f.NumCells(); id++ {
		f.Cell(field.CellID(id), &c)
		if !c.Interval().Intersects(q) {
			continue
		}
		cells++
		for _, pg := range field.Band(&c, q.Lo, q.Hi) {
			area += pg.Area()
		}
	}
	return cells, area
}
