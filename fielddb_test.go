package fielddb

import (
	"math"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/grid"
)

func TestOpenAndQuery(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Method() != IHilbert {
		t.Fatalf("default method = %s", db.Method())
	}
	if db.Field() != Field(dem) {
		t.Fatal("Field accessor broken")
	}
	vr := dem.ValueRange()
	res, err := db.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsMatched == 0 || res.Area <= 0 {
		t.Fatalf("no answers: %+v", res)
	}
	if db.IOStats().Reads == 0 {
		t.Fatal("no I/O recorded")
	}
	if db.Stats().Cells != dem.NumCells() {
		t.Fatalf("stats cells %d", db.Stats().Cells)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Fatal("nil field accepted")
	}
	dem, _ := TerrainDEM(16, 1)
	if _, err := Open(dem, Options{Method: "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestAllMethodsViaFacade(t *testing.T) {
	dem, _ := TerrainDEM(32, 7)
	vr := dem.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.3, vr.Lo+vr.Length()*0.35
	var areas []float64
	for _, m := range []Method{LinearScan, IAll, IHilbert} {
		db, err := Open(dem, Options{Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		res, err := db.ValueQuery(lo, hi)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		areas = append(areas, res.Area)
	}
	for i := 1; i < len(areas); i++ {
		if math.Abs(areas[i]-areas[0]) > 1e-6*(1+areas[0]) {
			t.Fatalf("methods disagree on area: %v", areas)
		}
	}
}

// TestCellsStoredOnce is the structural guard of the one cell file: whatever
// the method, the only pages are the value store's. A DEM locates points by
// its lattice and a TIN by its cell buckets, both kept by the store: no
// second pager, no second heap of cell records.
func TestCellsStoredOnce(t *testing.T) {
	dem, _ := TerrainDEM(32, 7)
	mesh, _ := NoiseTIN(300, 7)
	for _, opts := range []Options{
		{Method: LinearScan}, {Method: IAll}, {Method: IHilbert},
		{Method: LinearScan, TileSide: 8}, {Method: IHilbert, TileSide: 8},
	} {
		for _, f := range []Field{dem, mesh} {
			db, err := Open(f, opts)
			if err != nil {
				t.Fatalf("%T %+v: %v", f, opts, err)
			}
			st := db.Stats()
			if st.CellPages == 0 || st.Cells != f.NumCells() || st.CellPages+st.IndexPages+st.SidecarPages > db.pager.NumPages() {
				t.Errorf("%T %s: value store %+v for %d cells on %d pages", f, db.Method(), st, f.NumCells(), db.pager.NumPages())
			}
			if w, err := db.PointQuery(f.Bounds().Center()); err != nil || math.IsNaN(w) {
				t.Errorf("%T %s: point query %v (%v)", f, db.Method(), w, err)
			}
			db.Close()
		}
	}
}

func TestValueAboveBelow(t *testing.T) {
	dem, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 { return x })
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	above, err := db.ValueAbove(12)
	if err != nil {
		t.Fatal(err)
	}
	// x >= 12 over a 16×16 domain: area 4×16 = 64.
	if math.Abs(above.Area-64) > 1e-6 {
		t.Fatalf("ValueAbove area = %g, want 64", above.Area)
	}
	below, err := db.ValueBelow(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(below.Area-64) > 1e-6 {
		t.Fatalf("ValueBelow area = %g, want 64", below.Area)
	}
	if _, err := db.ValueQuery(5, 4); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestPointQueryFacade(t *testing.T) {
	dem, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 { return 2*x + y })
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := db.PointQuery(geom.Pt(3.5, 8.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-15.5) > 1e-9 {
		t.Fatalf("PointQuery = %g, want 15.5", w)
	}
	if _, err := db.PointQuery(geom.Pt(-5, -5)); err == nil {
		t.Fatal("outside point accepted")
	}
}

func TestAndFacade(t *testing.T) {
	f1, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 { return x })
	f2, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 { return y })
	db1, _ := Open(f1, Options{})
	db2, _ := Open(f2, Options{})
	res, err := And([]*DB{db1, db2}, []Interval{{Lo: 2, Hi: 6}, {Lo: 8, Hi: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Area-16) > 1e-6 {
		t.Fatalf("And area = %g, want 16", res.Area)
	}
}

func TestNoiseTINFacade(t *testing.T) {
	tn, err := NoiseTIN(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(tn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ValueAbove(70)
	if err != nil {
		t.Fatal(err)
	}
	// There must be noisy areas near roads/sources, but not everywhere.
	if res.Area <= 0 {
		t.Fatal("no region above 70 dB")
	}
	if res.Area >= tn.Bounds().Area() {
		t.Fatal("everything above 70 dB")
	}
}

func TestExactQueryFacade(t *testing.T) {
	dem, _ := TerrainDEM(32, 9)
	db, _ := Open(dem, Options{})
	vr := dem.ValueRange()
	mid := vr.Lo + vr.Length()/2
	res, err := db.ValueQuery(mid, mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Isolines) == 0 {
		t.Fatal("exact query produced no isolines")
	}
	if len(res.Regions) != 0 {
		t.Fatal("exact query produced polygons")
	}
}
