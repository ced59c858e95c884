package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// bruteAggregate computes the reference aggregate answer straight from the
// field: how many cells intersect q and their total planar area (whole-cell
// area, the quantity the summary's area distribution accumulates).
func bruteAggregate(f field.Field, q geom.Interval) (count int, area float64) {
	var c field.Cell
	for id := 0; id < f.NumCells(); id++ {
		f.Cell(field.CellID(id), &c)
		if !c.Interval().Intersects(q) {
			continue
		}
		count++
		area += c.Area()
	}
	return count, area
}

// aggregateQueries spans the selectivity spectrum, from slivers under a
// percent of the value range to the whole field.
func aggregateQueries(f field.Field, seed int64) []geom.Interval {
	rng := rand.New(rand.NewSource(seed))
	vr := f.ValueRange()
	qs := []geom.Interval{
		vr, // the whole field
		{Lo: vr.Lo - vr.Length(), Hi: vr.Hi + vr.Length()}, // superset
		{Lo: vr.Hi + 1, Hi: vr.Hi + 2},                     // empty band
	}
	for _, frac := range []float64{0.005, 0.01, 0.05, 0.2, 0.5} {
		for i := 0; i < 6; i++ {
			lo := vr.Lo + rng.Float64()*vr.Length()*(1-frac)
			qs = append(qs, geom.Interval{Lo: lo, Hi: lo + vr.Length()*frac})
		}
	}
	return qs
}

// checkCertified asserts one approximate answer's certified bounds contain
// the exact answer, and that it cost at most the summary's page run.
func checkCertified(t *testing.T, label string, res *AggregateResult, count int, area float64) {
	t.Helper()
	if !res.Approx || res.Fallback {
		t.Fatalf("%s: not an approximate answer: %+v", label, res)
	}
	if diff := math.Abs(res.Count - float64(count)); diff > res.CountBound+1e-9 {
		t.Fatalf("%s: count %g±%g misses the true %d", label, res.Count, res.CountBound, count)
	}
	if diff := math.Abs(res.Area - area); diff > res.AreaBound+1e-6*(1+res.TotalArea) {
		t.Fatalf("%s: area %g±%g misses the true %g", label, res.Area, res.AreaBound, area)
	}
	if res.TotalArea > 0 {
		wantFrac := area / res.TotalArea
		if diff := math.Abs(res.Fraction - wantFrac); diff > res.FractionBound+1e-9 {
			t.Fatalf("%s: fraction %g±%g misses the true %g", label, res.Fraction, res.FractionBound, wantFrac)
		}
	}
	if res.IO.Reads > summaryPages {
		t.Fatalf("%s: approximate answer cost %d physical reads, want <= %d", label, res.IO.Reads, summaryPages)
	}
}

// TestAggregateCertifiedBounds is the tier's core property, on a grid and a
// TIN: at every selectivity the summary's answer differs from brute force by
// at most its own certified bound, in at most summaryPages physical reads —
// and a tolerance the bound can't meet falls back to the exact pipeline.
func TestAggregateCertifiedBounds(t *testing.T) {
	fields := map[string]field.Field{
		"dem": testDEM(t, 32, 0.7),
		"tin": testTIN(t, 400),
	}
	for fname, f := range fields {
		t.Run(fname, func(t *testing.T) {
			p, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
			if err != nil {
				t.Fatal(err)
			}
			if p.sumPages == 0 {
				t.Fatal("fresh build carries no summary")
			}
			for _, q := range aggregateQueries(f, 31) {
				count, area := bruteAggregate(f, q)

				// +Inf accepts any certified bound: always approximate.
				res, err := p.AggregateContext(context.Background(), q, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				checkCertified(t, fname, res, count, area)
				if res.TotalCells != float64(f.NumCells()) {
					t.Fatalf("TotalCells = %g, want %d", res.TotalCells, f.NumCells())
				}

				// A near-zero tolerance forces the exact pipeline — unless
				// the summary's bound is itself that tight (endpoint queries
				// certify exactly), in which case staying approximate is the
				// contract.
				exact, err := p.AggregateContext(context.Background(), q, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				if exact.Fallback {
					if exact.Count != float64(count) || exact.CountBound != 0 || exact.AreaBound != 0 {
						t.Fatalf("fallback answer %+v, want exact count %d with zero bounds", exact, count)
					}
					if math.Abs(exact.Area-area) > 1e-6*(1+area) {
						t.Fatalf("fallback area %g, want %g", exact.Area, area)
					}
				} else if exact.FractionBound > 1e-12 {
					t.Fatalf("approximate answer kept past tolerance: %+v", exact)
				}
			}
		})
	}
}

// TestAggregateRoundtrip: an index file that declares no summary pages
// answers aggregates through the exact pipeline only, over the exact
// denominators every store carries: its cells and their total area.
// (FuzzEngineProgram holds a reopened store's summary answers to the saved
// one's.)
func TestAggregateRoundtrip(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "summary.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.sumPages != summaryPages {
		t.Fatalf("reopened summary spans %d pages, want %d", opened.sumPages, summaryPages)
	}
	opened.sumPages = 0
	q := aggregateQueries(f, 32)[4]
	count, area := bruteAggregate(f, q)
	_, total := bruteAggregate(f, geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)})
	res, err := opened.AggregateContext(context.Background(), q, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || !res.Fallback || res.Count != float64(count) {
		t.Fatalf("summary-less aggregate = %+v, want exact count %d", res, count)
	}
	if res.TotalArea != total || res.Fraction != area/total || res.TotalCells != float64(f.NumCells()) {
		t.Fatalf("summary-less aggregate = %+v, want area %g of the field's %g", res, area, total)
	}
}

// TestAggregateTiled covers the tiled planner's first and last stage:
// zero-read composition when every intersecting tile is covered, and — once
// no global summary pages are declared — the exact scatter-gather where the
// composition cannot answer. (The bounded global summary in between, before and
// after a reopen, is FuzzEngineProgram's to check.)
func TestAggregateTiled(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	ti, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	full, err := ti.AggregateContext(context.Background(), geom.Interval{Lo: vr.Lo - 1, Hi: vr.Hi + 1}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !full.Approx || full.Count != float64(f.NumCells()) || full.IO.Reads != 0 || full.CountBound != 0 || full.AreaBound != 0 {
		t.Fatalf("covered composition = %+v, want exact count %d at zero reads", full, f.NumCells())
	}
	ti.sumPages = 0
	q := aggregateQueries(f, 33)[5]
	count, _ := bruteAggregate(f, q)
	res, err := ti.AggregateContext(context.Background(), q, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || !res.Fallback || res.Count != float64(count) {
		t.Fatalf("summary-less tiled aggregate = %+v, want exact count %d", res, count)
	}
}

// TestAggregateMaintainedUnderUpdates: after update batches the live
// summary's bounds certify against the mutated field and equal a fresh fit,
// while a snapshot pinned before them answers from the pre-update summary
// pages.
func TestAggregateMaintainedUnderUpdates(t *testing.T) {
	runOn(t, "dem", rowOf("I-Hilbert", BuildOptions{Method: MethodIHilbert}),
		step{opSnapshot, 60, 200, 5}, step{opUpdate, 11, 8, 8}, step{opAggregate, 40, 120, 3},
		step{opAggregate, 150, 30, 2}, step{opUpdate, 7, 9, 9}, step{opRebuild, 80, 100, 0}, step{opRebuild, 10, 230, 0})
}

// TestAggregateWidenedUnderFileUpdates: a file-opened index has no fit
// weights, so updates widen the persisted summary's slack instead — looser
// bounds, but still certified against the mutated field, still at most
// summaryPages reads.
func TestAggregateWidenedUnderFileUpdates(t *testing.T) {
	ctx := context.Background()
	f := testDEM(t, 32, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "widen.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	q := geom.Interval{Lo: 30, Hi: 55}
	before, err := opened.AggregateContext(context.Background(), q, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}

	for batch := int64(0); batch < 3; batch++ {
		if _, err := opened.ApplyUpdates(ctx, f, testUpdates(f, 25, 20+batch)); err != nil {
			t.Fatal(err)
		}
	}
	count, area := bruteAggregate(f, q)
	after, err := opened.AggregateContext(context.Background(), q, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, "widened", after, count, area)
	if after.CountBound < before.CountBound || after.AreaBound < before.AreaBound {
		t.Fatalf("widening shrank the bounds: %g/%g -> %g/%g",
			before.CountBound, before.AreaBound, after.CountBound, after.AreaBound)
	}
	for _, q := range aggregateQueries(f, 36)[:12] {
		count, area := bruteAggregate(f, q)
		res, err := opened.AggregateContext(context.Background(), q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		checkCertified(t, "widened sweep", res, count, area)
	}
}
