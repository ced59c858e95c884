package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/intervaltree"
	"fielddb/internal/ipindex"
	"fielddb/internal/storage"
)

// filtered is the pipeline the related-work baselines ride: an in-memory
// filter turns a value interval into cell ids, FetchCells reads them in that
// order from a natural-order heap, and each fetched cell is refined with Band.
type filtered struct {
	*engine
	filter func(geom.Interval) []uint64
}

// buildFiltered builds the natural-order heap on p under filter.
func buildFiltered(f field.Field, p *storage.Pager, filter func(geom.Interval) []uint64) (filtered, error) {
	e, err := buildIx(f, p, BuildOptions{Method: MethodLinearScan, NoSidecar: true})
	return filtered{e, filter}, err
}

func (f filtered) Query(q geom.Interval) (*Result, error) {
	res := &Result{Query: q}
	io, err := f.FetchCells(context.Background(), nil, f.filter(q), func(c *field.Cell) bool {
		res.CellsFetched++
		if c.Interval().Intersects(q) {
			res.CellsMatched++
			for _, pg := range field.Band(c, q.Lo, q.Hi) {
				res.Area += pg.Area()
			}
		}
		return true
	})
	res.IO = io
	return res, err
}

// intervalTreeFilter is I-IntTree's filter: a centered interval tree over
// every cell interval, its hits in id order.
func intervalTreeFilter(f field.Field) func(geom.Interval) []uint64 {
	items := make([]intervaltree.Item, f.NumCells())
	var c field.Cell
	for id := range items {
		f.Cell(field.CellID(id), &c)
		items[id] = intervaltree.Item{Interval: c.Interval(), Data: uint64(id)}
	}
	tree := intervaltree.Build(items)
	return func(q geom.Interval) []uint64 {
		var ids []uint64
		tree.Query(q, func(it intervaltree.Item) bool {
			ids = append(ids, it.Data)
			return true
		})
		slices.Sort(ids)
		return ids
	}
}

// ipRowFilter is IP-Row's filter: one IP-index per DEM row, its hits in row
// order.
func ipRowFilter(d *grid.DEM) func(geom.Interval) []uint64 {
	ip := ipindex.Build(d)
	return func(q geom.Interval) []uint64 {
		var ids []uint64
		ip.Query(q, func(id field.CellID) bool {
			ids = append(ids, uint64(id))
			return true
		})
		return ids
	}
}

// TestIPRowAgreesWithBruteForce: FetchCells over the IP-index's row-ordered
// ids answers as the brute-force oracle does, and fetches only matching cells.
func TestIPRowAgreesWithBruteForce(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	ix, err := buildFiltered(f, newPager(), ipRowFilter(f))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vr := f.ValueRange()
	for trial := 0; trial < 25; trial++ {
		lo := vr.Lo + rng.Float64()*vr.Length()
		q := geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.1}
		wantCells, wantArea := bruteForce(f, q)
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CellsMatched != len(wantCells) {
			t.Fatalf("query %v: matched %d, want %d", q, res.CellsMatched, len(wantCells))
		}
		if math.Abs(res.Area-wantArea) > 1e-6*(1+wantArea) {
			t.Fatalf("query %v: area %g, want %g", q, res.Area, wantArea)
		}
		// The IP-index filter is exact on cell intervals: every fetched
		// cell matches.
		if res.CellsFetched != res.CellsMatched {
			t.Fatalf("IP-Row fetched %d but matched %d", res.CellsFetched, res.CellsMatched)
		}
	}
}

// TestIPRowScattersIOComparedToIHilbert: the paper's critique, quantified —
// for the same query, fetching IP-Row's candidates pays far more random page
// reads than I-Hilbert, because they are scattered row by row.
func TestIPRowScattersIOComparedToIHilbert(t *testing.T) {
	f := testDEM(t, 64, 0.8)
	ipr, err := buildFiltered(f, newPager(), ipRowFilter(f))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	rng := rand.New(rand.NewSource(6))
	var iprRand, ihRand int
	for i := 0; i < 10; i++ {
		lo := vr.Lo + rng.Float64()*vr.Length()*0.9
		q := geom.Interval{Lo: lo, Hi: lo + 0.05*vr.Length()}
		r1, err := ipr.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ih.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		iprRand += r1.IO.RandReads
		ihRand += r2.IO.RandReads
	}
	if iprRand <= ihRand {
		t.Fatalf("expected IP-Row to pay more random reads: %d vs %d", iprRand, ihRand)
	}
}
