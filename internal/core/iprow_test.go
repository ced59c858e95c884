package core

import (
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/geom"
)

func TestIPRowAgreesWithBruteForce(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	ix, err := BuildIPRow(f, newPager())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Method() != MethodIPRow {
		t.Fatalf("method = %s", ix.Method())
	}
	st := ix.Stats()
	if st.Cells != f.NumCells() || st.Groups != 32 || st.IndexPages != 0 {
		t.Fatalf("stats = %+v", st)
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
	if _, err := ix.Query(geom.EmptyInterval()); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestIPRowScattersIOComparedToIHilbert(t *testing.T) {
	// The paper's critique, quantified: for the same query, IP-Row pays
	// far more random page reads than I-Hilbert because its candidates are
	// scattered row by row.
	f := testDEM(t, 64, 0.8)
	ipr, err := BuildIPRow(f, newPager())
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

func TestITreeAgreesWithBruteForce(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	ix, err := BuildITree(f, newPager())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Method() != MethodIntervalTree {
		t.Fatalf("method = %s", ix.Method())
	}
	st := ix.Stats()
	if st.Cells != f.NumCells() || st.IndexPages != 0 {
		t.Fatalf("stats = %+v", st)
	}
	rng := rand.New(rand.NewSource(17))
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
		// Exact filter: fetched == matched.
		if res.CellsFetched != res.CellsMatched {
			t.Fatalf("I-IntTree fetched %d but matched %d", res.CellsFetched, res.CellsMatched)
		}
	}
	if _, err := ix.Query(geom.EmptyInterval()); err == nil {
		t.Fatal("empty query accepted")
	}
}
