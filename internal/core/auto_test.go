package core

import (
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/geom"
)

func TestAutoAgreesWithBruteForce(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	a, err := buildIx(f, newPager(), BuildOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if a.Method() != MethodAuto {
		t.Fatalf("method = %s", a.Method())
	}
	if a.Stats().Method != MethodAuto || a.Stats().Cells != f.NumCells() {
		t.Fatalf("stats = %+v", a.Stats())
	}
	rng := rand.New(rand.NewSource(31))
	vr := f.ValueRange()
	for trial := 0; trial < 30; trial++ {
		lo := vr.Lo + rng.Float64()*vr.Length()
		width := rng.Float64() * vr.Length() * 0.8 // mix narrow and wide
		q := geom.Interval{Lo: lo, Hi: math.Min(lo+width, vr.Hi)}
		wantCells, wantArea := bruteForce(f, q)
		res, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CellsMatched != len(wantCells) {
			t.Fatalf("query %v: matched %d, want %d", q, res.CellsMatched, len(wantCells))
		}
		if math.Abs(res.Area-wantArea) > 1e-6*(1+wantArea) {
			t.Fatalf("query %v: area %g, want %g", q, res.Area, wantArea)
		}
	}
	// With the mixed workload, both access paths must have fired.
	if a.ScanQueries() == 0 || a.FilterQueries() == 0 {
		t.Fatalf("planner never alternated: scan=%d filter=%d", a.ScanQueries(), a.FilterQueries())
	}
	if _, err := a.Query(geom.EmptyInterval()); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestAutoPlannerDecisions(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	a, err := buildIx(f, newPager(), BuildOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	// The full range matches every cell: must scan.
	if _, err := a.Query(vr); err != nil {
		t.Fatal(err)
	}
	if a.ScanQueries() != 1 {
		t.Fatalf("full-range query used the filter path (est %g)",
			a.EstimateSelectivity(vr))
	}
	// A narrow query must use the filter.
	narrow := geom.Interval{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*0.005}
	if _, err := a.Query(narrow); err != nil {
		t.Fatal(err)
	}
	if a.FilterQueries() != 1 {
		t.Fatalf("narrow query scanned (est %g)", a.EstimateSelectivity(narrow))
	}
}

func TestEstimateSelectivityBounds(t *testing.T) {
	f := testDEM(t, 16, 0.6)
	a, err := buildIx(f, newPager(), BuildOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		lo := vr.Lo + rng.Float64()*vr.Length()
		q := geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.3}
		est := a.EstimateSelectivity(q)
		if est < 0 || est > 1 {
			t.Fatalf("estimate %g out of [0,1]", est)
		}
		// The estimate must never undershoot the truth by more than one
		// bin's worth of slack (histograms overestimate intersection).
		match, _ := bruteForce(f, q)
		truth := float64(len(match)) / float64(f.NumCells())
		if est < truth-0.15 {
			t.Fatalf("estimate %g far below truth %g for %v", est, truth, q)
		}
	}
}

func TestAutoBeatsBothFixedPathsOnMixedWorkload(t *testing.T) {
	// On a workload mixing narrow and full-range queries, the planner's
	// simulated cost must not exceed either fixed strategy's by more than
	// a small margin (it should be at least as good as the better one on
	// each query).
	f := testDEM(t, 64, 0.3)
	auto, err := buildIx(f, newPager(), BuildOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	ih, _ := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	ls, _ := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	vr := f.ValueRange()
	rng := rand.New(rand.NewSource(77))
	var autoT, ihT, lsT float64
	for i := 0; i < 30; i++ {
		var q geom.Interval
		if i%2 == 0 {
			lo := vr.Lo + rng.Float64()*vr.Length()*0.95
			q = geom.Interval{Lo: lo, Hi: lo + vr.Length()*0.01}
		} else {
			q = geom.Interval{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*(0.6+0.4*rng.Float64())}
		}
		ra, err := auto.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rh, _ := ih.Query(q)
		rl, _ := ls.Query(q)
		autoT += ra.IO.SimElapsed.Seconds()
		ihT += rh.IO.SimElapsed.Seconds()
		lsT += rl.IO.SimElapsed.Seconds()
	}
	if autoT > ihT*1.05 && autoT > lsT*1.05 {
		t.Fatalf("planner worse than both fixed paths: auto=%g ih=%g ls=%g", autoT, ihT, lsT)
	}
	// And it should clearly beat the worse of the two.
	worst := math.Max(ihT, lsT)
	if autoT > 0.9*worst {
		t.Fatalf("planner did not exploit the workload: auto=%g worst=%g", autoT, worst)
	}
}

// The planner's decision counters and its histogram estimate of the fraction
// of cells whose interval intersects q, as the tests above read them.
func (e *engine) ScanQueries() int   { return int(e.parts[0].scanQueries.Load()) }
func (e *engine) FilterQueries() int { return int(e.parts[0].filterQueries.Load()) }
func (e *engine) EstimateSelectivity(q geom.Interval) float64 {
	return e.cur().parts[0].hist.estimate(q, e.cells)
}
