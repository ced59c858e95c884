package main

import (
	"context"
	"fmt"
	"os"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/geom"
)

// runMetricsDemo (fieldbench -metrics) opens a terrain database, drives a
// mixed workload — value, point, approximate, and contour queries — through
// the facade, and dumps the engine's cumulative metrics registry, either as
// the aligned text report or (with -json) as machine-readable JSON.
func runMetricsDemo(side, queries int, asJSON bool) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dem, err := fielddb.TerrainDEM(side, 42)
	if err != nil {
		fail(err)
	}
	// I-Hilbert (the default) serves all four query kinds; LinearScan and
	// I-All have no subfield summaries for approximate queries.
	db, err := fielddb.Open(dem, fielddb.Options{})
	if err != nil {
		fail(err)
	}
	defer db.Close()

	vr := dem.ValueRange()
	step := vr.Length() / float64(queries+1)
	bounds := dem.Bounds()
	for i := 0; i < queries; i++ {
		lo := vr.Lo + float64(i)*step
		if _, err := db.ValueQuery(lo, lo+step); err != nil {
			fail(err)
		}
		if _, err := db.ApproxValueQueryContext(context.Background(), lo, lo+step); err != nil {
			fail(err)
		}
		frac := float64(i+1) / float64(queries+1)
		pt := geom.Pt(
			bounds.Min.X+frac*(bounds.Max.X-bounds.Min.X),
			bounds.Min.Y+frac*(bounds.Max.Y-bounds.Min.Y),
		)
		if _, err := db.PointQuery(pt); err != nil {
			fail(err)
		}
		if _, err := db.Contours(vr.Lo + frac*vr.Length()); err != nil {
			fail(err)
		}
	}

	m := db.Metrics()
	if asJSON {
		b, err := bench.MarshalIndent(m)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	fmt.Printf("mixed workload: %d each of value/approx/point/contour queries on %d×%d terrain (%s)\n\n",
		queries, side, side, db.Method())
	fmt.Print(m.String())
}
