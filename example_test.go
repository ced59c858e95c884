package fielddb_test

import (
	"fmt"

	"fielddb"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
)

// ExampleOpen builds a small analytic field, indexes it with the paper's
// I-Hilbert method, and runs a field value query.
func ExampleOpen() {
	// w(x, y) = x over a 16×16 grid.
	dem, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 {
		return x
	})
	db, _ := fielddb.Open(dem, fielddb.Options{})
	res, _ := db.ValueQuery(4, 8) // the strip 4 <= x <= 8
	fmt.Printf("area %.0f, cells matched %d\n", res.Area, res.CellsMatched)
	// Output: area 64, cells matched 96
}

// ExampleDB_PointQuery answers the conventional query F(v') through the
// DEM's lattice, which finds the cell that holds the point.
func ExampleDB_PointQuery() {
	dem, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 8, 8, func(x, y float64) float64 {
		return 10*x + y
	})
	db, _ := fielddb.Open(dem, fielddb.Options{})
	w, _ := db.PointQuery(geom.Pt(2.5, 4.5))
	fmt.Printf("%.1f\n", w)
	// Output: 29.5
}

// ExampleAnd intersects the answer regions of value queries over two fields
// sharing one spatial domain — the paper's ocean temperature × salinity
// example.
func ExampleAnd() {
	f1, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 8, 8, func(x, y float64) float64 { return x })
	f2, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 8, 8, func(x, y float64) float64 { return y })
	db1, _ := fielddb.Open(f1, fielddb.Options{})
	db2, _ := fielddb.Open(f2, fielddb.Options{})
	res, _ := fielddb.And(
		[]*fielddb.DB{db1, db2},
		[]fielddb.Interval{{Lo: 2, Hi: 5}, {Lo: 1, Hi: 7}},
	)
	fmt.Printf("%.0f\n", res.Area) // 3 × 6 rectangle
	// Output: 18
}

// ExampleDB_Contours extracts an isoline map through the value index.
func ExampleDB_Contours() {
	// A cone: circular contours.
	dem, _ := grid.FromFunc(geom.Pt(-8, -8), 1, 1, 16, 16, func(x, y float64) float64 {
		return 10 - geom.Pt(x, y).Dist(geom.Pt(0, 0))
	})
	db, _ := fielddb.Open(dem, fielddb.Options{})
	lines, _ := db.Contours(5) // the circle of radius 5
	fmt.Printf("%d closed contour: %v\n", len(lines), lines[0].Closed())
	// Output: 1 closed contour: true
}
