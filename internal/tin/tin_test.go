package tin

import (
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
)

func TestDelaunayErrors(t *testing.T) {
	if _, err := Delaunay([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}); err == nil {
		t.Fatal("2 points accepted")
	}
	if _, err := Delaunay([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 0}}); err == nil {
		t.Fatal("duplicate points accepted")
	}
	if _, err := Delaunay([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}); err == nil {
		t.Fatal("collinear points accepted")
	}
}

func TestDelaunaySquare(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	tris, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 2 {
		t.Fatalf("square triangulated into %d triangles", len(tris))
	}
	total := 0.0
	for _, tr := range tris {
		total += geom.Polygon{pts[tr[0]], pts[tr[1]], pts[tr[2]]}.Area()
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("triangulated area = %g, want 1", total)
	}
}

func delaunayCircumcircleOK(t *testing.T, pts []geom.Point, tris []Triangle) {
	t.Helper()
	// Delaunay property: no point lies strictly inside any triangle's
	// circumcircle.
	for _, tr := range tris {
		a, b, c := pts[tr[0]], pts[tr[1]], pts[tr[2]]
		d := 2 * (a.X*(b.Y-c.Y) + b.X*(c.Y-a.Y) + c.X*(a.Y-b.Y))
		if math.Abs(d) < 1e-12 {
			t.Fatal("degenerate output triangle")
		}
		a2 := a.X*a.X + a.Y*a.Y
		b2 := b.X*b.X + b.Y*b.Y
		c2 := c.X*c.X + c.Y*c.Y
		ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
		uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
		r2 := (a.X-ux)*(a.X-ux) + (a.Y-uy)*(a.Y-uy)
		for pi, p := range pts {
			if int32(pi) == tr[0] || int32(pi) == tr[1] || int32(pi) == tr[2] {
				continue
			}
			d2 := (p.X-ux)*(p.X-ux) + (p.Y-uy)*(p.Y-uy)
			if d2 < r2*(1-1e-9) {
				t.Fatalf("point %v strictly inside circumcircle of %v", p, tr)
			}
		}
	}
}

func TestDelaunayRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(100)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		tris, err := Delaunay(pts)
		if err != nil {
			t.Fatal(err)
		}
		delaunayCircumcircleOK(t, pts, tris)
		// Area of the triangulation equals the area of the convex hull:
		// at minimum it must cover the bounding box's interior points, so
		// compare against a Monte-Carlo hull-area estimate via coverage.
		total := 0.0
		for _, tr := range tris {
			total += geom.Polygon{pts[tr[0]], pts[tr[1]], pts[tr[2]]}.Area()
		}
		if total <= 0 {
			t.Fatal("zero triangulated area")
		}
		// Euler check for planar triangulation of a point set:
		// T = 2n - 2 - h where h = hull points; so T <= 2n - 5 for h >= 3.
		if len(tris) > 2*n-5 {
			t.Fatalf("too many triangles: %d for %d points", len(tris), n)
		}
	}
}

func buildTestTIN(t *testing.T, n int, f func(x, y float64) float64) *TIN {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	pts := make([]geom.Point, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		vals[i] = f(pts[i].X, pts[i].Y)
	}
	tin, err := FromPoints(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tin
}

func TestTINBasics(t *testing.T) {
	tin := buildTestTIN(t, 200, func(x, y float64) float64 { return x + y })
	if tin.NumSamples() != 200 {
		t.Fatalf("NumSamples = %d", tin.NumSamples())
	}
	if tin.NumCells() == 0 {
		t.Fatal("no cells")
	}
	var c field.Cell
	tin.Cell(0, &c)
	if len(c.Vertices) != 3 || len(c.Values) != 3 {
		t.Fatalf("cell shape %d/%d", len(c.Vertices), len(c.Values))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	vr := tin.ValueRange()
	if vr.IsEmpty() || vr.Lo < 0 || vr.Hi > 100 {
		t.Fatalf("ValueRange = %v", vr)
	}
}

func TestTINNewValidation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	if _, err := New(pts, []float64{1, 2}, []Triangle{{0, 1, 2}}); err == nil {
		t.Fatal("value count mismatch accepted")
	}
	if _, err := New(pts, []float64{1, 2, 3}, nil); err == nil {
		t.Fatal("no triangles accepted")
	}
	if _, err := New(pts, []float64{1, 2, 3}, []Triangle{{0, 1, 7}}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := New(pts, []float64{1, math.NaN(), 3}, []Triangle{{0, 1, 2}}); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestTINLocateAndValueAt(t *testing.T) {
	tin := buildTestTIN(t, 400, func(x, y float64) float64 { return 2*x - y })
	rng := rand.New(rand.NewSource(8))
	located := 0
	for i := 0; i < 1000; i++ {
		p := geom.Pt(rng.Float64()*50, rng.Float64()*50)
		id, ok := tin.Locate(p)
		if !ok {
			continue // outside the convex hull
		}
		located++
		var c field.Cell
		tin.Cell(id, &c)
		w, ok := field.Interpolate(&c, p)
		if !ok {
			t.Fatalf("Locate returned cell %d not containing %v", id, p)
		}
		// Linear data is reproduced exactly inside each triangle.
		want := 2*p.X - p.Y
		if math.Abs(w-want) > 1e-9 {
			t.Fatalf("interp at %v = %g, want %g", p, w, want)
		}
	}
	if located < 900 {
		t.Fatalf("only %d/1000 points located — locator too lossy", located)
	}
	if _, ok := tin.Locate(geom.Pt(-10, -10)); ok {
		t.Fatal("outside point located")
	}
}

func TestTINCellsCoverHull(t *testing.T) {
	tin := buildTestTIN(t, 300, func(x, y float64) float64 { return x })
	// Sum of cell areas equals hull area; every cell has positive area.
	total := 0.0
	var c field.Cell
	for id := 0; id < tin.NumCells(); id++ {
		tin.Cell(field.CellID(id), &c)
		a := (geom.Polygon{c.Vertices[0], c.Vertices[1], c.Vertices[2]}).Area()
		if a <= 0 {
			t.Fatalf("cell %d has area %g", id, a)
		}
		total += a
	}
	b := tin.Bounds()
	if total > b.Area()+1e-6 {
		t.Fatalf("cells cover %g > bounds %g", total, b.Area())
	}
	if total < 0.8*b.Area() {
		t.Fatalf("cells cover only %g of bounds %g", total, b.Area())
	}
}

func BenchmarkDelaunay1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Delaunay(pts); err != nil {
			b.Fatal(err)
		}
	}
}
