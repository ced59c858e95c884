package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIntervalBasics(t *testing.T) {
	iv := Interval{2, 5}
	if iv.IsEmpty() {
		t.Fatal("non-empty interval reported empty")
	}
	if got := iv.Length(); !almostEq(got, 3) {
		t.Fatalf("Length = %g, want 3", got)
	}
	for _, w := range []float64{2, 3.5, 5} {
		if !iv.Contains(w) {
			t.Errorf("Contains(%g) = false, want true", w)
		}
	}
	for _, w := range []float64{1.999, 5.001} {
		if iv.Contains(w) {
			t.Errorf("Contains(%g) = true, want false", w)
		}
	}
}

func TestEmptyInterval(t *testing.T) {
	e := EmptyInterval()
	if !e.IsEmpty() {
		t.Fatal("EmptyInterval not empty")
	}
	if e.Contains(0) {
		t.Error("empty interval contains 0")
	}
	if e.Intersects(Interval{-1, 1}) {
		t.Error("empty interval intersects")
	}
	if e.Length() != 0 {
		t.Error("empty interval has nonzero length")
	}
	got := e.Union(Interval{1, 2})
	if got != (Interval{1, 2}) {
		t.Errorf("EmptyInterval().Union = %v, want [1,2]", got)
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 1}, Interval{1, 2}, true}, // touching is intersecting (closed)
		{Interval{0, 1}, Interval{1.01, 2}, false},
		{Interval{0, 10}, Interval{3, 4}, true},
		{Interval{3, 4}, Interval{0, 10}, true},
		{Interval{0, 1}, Interval{-2, -1}, false},
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("intersection not symmetric for %v %v", c.a, c.b)
		}
	}
}

func TestIntervalUnionIntersectProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Union contains both operands.
	f := func(a1, a2, b1, b2 float64) bool {
		a := Interval{math.Min(a1, a2), math.Max(a1, a2)}
		b := Interval{math.Min(b1, b2), math.Max(b1, b2)}
		u := a.Union(b)
		return u.Contains(a.Lo) && u.Contains(a.Hi) && u.Contains(b.Lo) && u.Contains(b.Hi)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Intersect is contained in both operands; empty iff !Intersects.
	g := func(a1, a2, b1, b2 float64) bool {
		a := Interval{math.Min(a1, a2), math.Max(a1, a2)}
		b := Interval{math.Min(b1, b2), math.Max(b1, b2)}
		x := a.Intersect(b)
		if x.IsEmpty() {
			return !a.Intersects(b)
		}
		return a.Contains(x.Lo) && a.Contains(x.Hi) && b.Contains(x.Lo) && b.Contains(x.Hi)
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 2}}
	if !almostEq(r.Area(), 8) {
		t.Errorf("Area = %g, want 8", r.Area())
	}
	if c := r.Center(); !almostEq(c.X, 2) || !almostEq(c.Y, 1) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if !r.ContainsPoint(Point{4, 2}) {
		t.Error("closed rect must contain its corner")
	}
	if r.ContainsPoint(Point{4.1, 2}) {
		t.Error("rect contains outside point")
	}
}

func TestRectUnionIntersects(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 2}, Point{3, 3}}
	if a.Intersects(b) {
		t.Error("disjoint rects intersect")
	}
	u := a.Union(b)
	if u.Min != (Point{0, 0}) || u.Max != (Point{3, 3}) {
		t.Errorf("Union = %v", u)
	}
	if !u.Intersects(a) || !u.Intersects(b) {
		t.Error("union must intersect both parts")
	}
	e := EmptyRect()
	if got := e.Union(a); got != a {
		t.Errorf("EmptyRect union = %v, want %v", got, a)
	}
	if e.Intersects(a) {
		t.Error("empty rect intersects")
	}
	if e.Area() != 0 {
		t.Error("empty rect area nonzero")
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Point{1, 5}, Point{-2, 3}, Point{4, -1})
	want := Rect{Point{-2, -1}, Point{4, 5}}
	if r != want {
		t.Errorf("RectFromPoints = %v, want %v", r, want)
	}
	if got := RectFromPoints(); !got.IsEmpty() {
		t.Errorf("RectFromPoints() = %v, want empty", got)
	}
	// The direct fold must agree with the Union of single-point rectangles bit
	// for bit, zero signs and infinities included: cell bounds feed the band
	// kernel, whose output is compared bitwise across versions.
	rng := rand.New(rand.NewSource(15))
	coord := func() float64 {
		specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1)}
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 100
	}
	bits := func(r Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y), math.Float64bits(r.Max.X), math.Float64bits(r.Max.Y)}
	}
	for i := 0; i < 20000; i++ {
		pts := make([]Point, 1+rng.Intn(4))
		want := EmptyRect()
		for j := range pts {
			pts[j] = Point{coord(), coord()}
			want = want.Union(Rect{Min: pts[j], Max: pts[j]})
		}
		if got := RectFromPoints(pts...); bits(got) != bits(want) {
			t.Fatalf("RectFromPoints(%v) = %v, Union fold %v", pts, got, want)
		}
	}
}

func TestOrient(t *testing.T) {
	if Orient(Point{0, 0}, Point{1, 0}, Point{0, 1}) <= 0 {
		t.Error("CCW triple not positive")
	}
	if Orient(Point{0, 0}, Point{0, 1}, Point{1, 0}) >= 0 {
		t.Error("CW triple not negative")
	}
	if Orient(Point{0, 0}, Point{1, 1}, Point{2, 2}) != 0 {
		t.Error("collinear triple not zero")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if !almostEq(sq.Area(), 4) {
		t.Errorf("square area = %g, want 4", sq.Area())
	}
	tri := Polygon{{0, 0}, {1, 0}, {0, 1}}
	if !almostEq(tri.Area(), 0.5) {
		t.Errorf("triangle area = %g, want 0.5", tri.Area())
	}
	// Orientation must not matter for Area.
	rev := Polygon{{0, 2}, {2, 2}, {2, 0}, {0, 0}}
	if !almostEq(rev.Area(), 4) {
		t.Errorf("reversed square area = %g, want 4", rev.Area())
	}
	if (Polygon{{0, 0}, {1, 1}}).Area() != 0 {
		t.Error("degenerate polygon area nonzero")
	}
}

// TestShoelaceFoldOrder holds Area and SignedArea to the modulo loop they
// replaced, verbatim, bit for bit: the cross products are added in ring order
// whatever the vertices, ±0 and ±Inf included. A NaN result matches any NaN:
// when two NaNs meet (NaN and Inf−Inf here) the compiler's operand order per
// call site decides which comes out.
func TestShoelaceFoldOrder(t *testing.T) {
	ref := func(pg Polygon) float64 {
		sum := 0.0
		for i := range pg {
			j := (i + 1) % len(pg)
			sum += pg[i].Cross(pg[j])
		}
		return sum
	}
	pool := []float64{0, math.Copysign(0, -1), 1, -3, 1e-310, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(77))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64() * 100
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i := 0; i < 20_000; i++ {
		pg := make(Polygon, rng.Intn(8))
		for j := range pg {
			pg[j] = Pt(pick(), pick())
		}
		wantArea := 0.0
		if len(pg) >= 3 {
			wantArea = math.Abs(ref(pg)) / 2
		}
		if got := pg.Area(); !same(got, wantArea) {
			t.Fatalf("%v: Area %v, modulo fold %v", pg, got, wantArea)
		}
		if got, want := pg.SignedArea(), ref(pg)/2; !same(got, want) {
			t.Fatalf("%v: SignedArea %v, modulo fold %v", pg, got, want)
		}
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := sq.Centroid()
	if !almostEq(c.X, 1) || !almostEq(c.Y, 1) {
		t.Errorf("centroid = %v, want (1,1)", c)
	}
	// Degenerate polygon falls back to vertex average.
	line := Polygon{{0, 0}, {2, 0}}
	c = line.Centroid()
	if !almostEq(c.X, 1) || !almostEq(c.Y, 0) {
		t.Errorf("degenerate centroid = %v, want (1,0)", c)
	}
}

func TestClipConvexHalf(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	// Keep x <= 1.
	got := ClipConvex(sq, HalfPlane{N: Point{1, 0}, C: 1})
	if !almostEq(got.Area(), 2) {
		t.Errorf("clipped area = %g, want 2", got.Area())
	}
	// Clip everything away.
	if got := ClipConvex(sq, HalfPlane{N: Point{1, 0}, C: -1}); got != nil {
		t.Errorf("fully clipped polygon not nil: %v", got)
	}
	// Clip nothing.
	got = ClipConvex(sq, HalfPlane{N: Point{1, 0}, C: 10})
	if !almostEq(got.Area(), 4) {
		t.Errorf("unclipped area = %g, want 4", got.Area())
	}
}

// squareBand clips the unit square, as its two triangles along the (0,0)–(1,1)
// diagonal, to the band lo <= grad·p <= hi and returns the surviving polygons.
func squareBand(grad Point, lo, hi float64) []Polygon {
	var out []Polygon
	for _, tri := range [2][3]Point{{{0, 0}, {1, 0}, {1, 1}}, {{0, 0}, {1, 1}, {0, 1}}} {
		if pg := AppendTriangleBand(nil, tri[0], tri[1], tri[2], grad, 0, lo, hi); len(pg) > 0 {
			out = append(out, pg)
		}
	}
	return out
}

func totalArea(pgs []Polygon) float64 {
	a := 0.0
	for _, pg := range pgs {
		a += pg.Area()
	}
	return a
}

func TestAppendTriangleBand(t *testing.T) {
	// Value function w(p) = x over the unit square; band [0.25, 0.75]
	// must be the middle vertical strip of area 0.5.
	if a := totalArea(squareBand(Point{1, 0}, 0.25, 0.75)); !almostEq(a, 0.5) {
		t.Errorf("band area = %g, want 0.5", a)
	}
	// Band outside value range -> empty, and dst comes back untouched.
	dst := []Point{{7, 7}}
	if got := AppendTriangleBand(dst, Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{1, 0}, 0, 2, 3); len(got) != 1 || got[0] != dst[0] {
		t.Errorf("out-of-range band = %v, want dst unchanged", got)
	}
	// Diagonal gradient w = x + y, band [0.5, 1.5] removes two corner
	// triangles of area 1/8 each.
	if a := totalArea(squareBand(Point{1, 1}, 0.5, 1.5)); !almostEq(a, 0.75) {
		t.Errorf("diagonal band area = %g, want 0.75", a)
	}
	// A clockwise triangle clips to the same region as its reversal.
	cw := AppendTriangleBand(nil, Point{1, 1}, Point{1, 0}, Point{0, 0}, Point{1, 0}, 0, 0.25, 0.75)
	ccw := AppendTriangleBand(nil, Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{1, 0}, 0, 0.25, 0.75)
	if !reflect.DeepEqual(cw, ccw) {
		t.Errorf("clockwise input clipped to %v, counter-clockwise to %v", cw, ccw)
	}
	// The result lands after dst's existing elements and allocates nothing
	// while dst has room.
	room := make([]Point, 1, 8)
	if n := testing.AllocsPerRun(100, func() {
		out := AppendTriangleBand(room, Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{1, 1}, 0, 0.5, 1.5)
		if len(out) != 1+5 {
			t.Fatalf("two parallel cuts left %d vertices, want 5", len(out)-1)
		}
	}); n != 0 {
		t.Errorf("AppendTriangleBand allocated %v times with room in dst", n)
	}
}

func TestConvexIntersect(t *testing.T) {
	a := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	b := Polygon{{1, 1}, {3, 1}, {3, 3}, {1, 3}}
	x := ConvexIntersect(a, b)
	if !almostEq(x.Area(), 1) {
		t.Errorf("intersection area = %g, want 1", x.Area())
	}
	// Disjoint.
	c := Polygon{{10, 10}, {11, 10}, {11, 11}, {10, 11}}
	if got := ConvexIntersect(a, c); got != nil {
		t.Errorf("disjoint intersection = %v, want nil", got)
	}
	// Clockwise second operand must still work (EnsureCCW path).
	bcw := Polygon{{1, 3}, {3, 3}, {3, 1}, {1, 1}}
	x = ConvexIntersect(a, bcw)
	if !almostEq(x.Area(), 1) {
		t.Errorf("CW intersection area = %g, want 1", x.Area())
	}
}

func TestEnsureCCW(t *testing.T) {
	cw := Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	if cw.SignedArea() >= 0 {
		t.Fatal("test polygon should be CW")
	}
	ccw := EnsureCCW(cw)
	if ccw.SignedArea() <= 0 {
		t.Error("EnsureCCW did not flip orientation")
	}
	if !almostEq(ccw.Area(), cw.Area()) {
		t.Error("EnsureCCW changed area")
	}
	// Idempotent on CCW input.
	again := EnsureCCW(ccw)
	if again.SignedArea() <= 0 {
		t.Error("EnsureCCW flipped a CCW polygon")
	}
}

func TestClipBandPropertyAreaMonotone(t *testing.T) {
	// Property: widening the band never shrinks the clipped area, and the
	// clipped region is always inside the original polygon's bounds.
	f := func(gx, gy, rawLo, rawWidth, rawWiden float64) bool {
		grad := Point{math.Mod(gx, 3), math.Mod(gy, 3)}
		if math.Abs(grad.X) < 1e-9 && math.Abs(grad.Y) < 1e-9 {
			grad.X = 1
		}
		lo := math.Mod(rawLo, 2)
		w := math.Abs(math.Mod(rawWidth, 2))
		widen := math.Abs(math.Mod(rawWiden, 2))
		narrow := squareBand(grad, lo, lo+w)
		wide := squareBand(grad, lo-widen, lo+w+widen)
		if totalArea(narrow) > totalArea(wide)+1e-9 {
			return false
		}
		for _, pg := range wide {
			b := pg.Bounds()
			if b.Min.X < -1e-9 || b.Min.Y < -1e-9 || b.Max.X > 1+1e-9 || b.Max.Y > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Errorf("Dot = %g", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Errorf("Cross = %g", got)
	}
	if got := (Point{0, 0}).Dist(Point{3, 4}); !almostEq(got, 5) {
		t.Errorf("Dist = %g", got)
	}
}

func TestPolygonClone(t *testing.T) {
	a := Polygon{{1, 2}, {3, 4}, {5, 6}}
	b := a.Clone()
	b[0].X = 99
	if a[0].X == 99 {
		t.Error("Clone did not copy")
	}
}

func TestConvexIntersectDegenerateOperands(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	// Zero-area operands must yield nil rather than leaking the other
	// operand through degenerate half-planes.
	point := Polygon{{1, 1}, {1, 1}, {1, 1}}
	if got := ConvexIntersect(sq, point); got != nil {
		t.Fatalf("point-polygon intersection = %v", got)
	}
	if got := ConvexIntersect(point, sq); got != nil {
		t.Fatalf("degenerate first operand = %v", got)
	}
	sliver := Polygon{{0, 0}, {2, 0}, {2, 0}, {0, 0}}
	if got := ConvexIntersect(sq, sliver); got != nil {
		t.Fatalf("sliver intersection = %v", got)
	}
}
