package band

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fielddb/internal/geom"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTriangleGradient(t *testing.T) {
	// w(x, y) = 2x + 3y + 1 sampled at three points must be recovered.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	w := func(p geom.Point) float64 { return 2*p.X + 3*p.Y + 1 }
	grad, b, ok := TriangleGradient(p0, p1, p2, w(p0), w(p1), w(p2))
	if !ok {
		t.Fatal("gradient failed")
	}
	if !almostEq(grad.X, 2) || !almostEq(grad.Y, 3) || !almostEq(b, 1) {
		t.Fatalf("grad = %v, b = %g", grad, b)
	}
	// Degenerate triangle.
	if _, _, ok := TriangleGradient(p0, p1, geom.Pt(2, 0), 0, 1, 2); ok {
		t.Fatal("degenerate triangle accepted")
	}
}

func TestTriangleValue(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(0, 2)
	// Vertex values reproduced exactly.
	for i, c := range []struct {
		p    geom.Point
		want float64
	}{
		{p0, 10}, {p1, 20}, {p2, 30},
		{geom.Pt(1, 0), 15},         // edge midpoint
		{geom.Pt(2.0/3, 2.0/3), 20}, // centroid = mean
	} {
		got, ok := TriangleValue(p0, p1, p2, 10, 20, 30, c.p)
		if !ok {
			t.Fatalf("case %d: point reported outside", i)
		}
		if !almostEq(got, c.want) {
			t.Fatalf("case %d: value = %g, want %g", i, got, c.want)
		}
	}
	// Outside point.
	if _, ok := TriangleValue(p0, p1, p2, 10, 20, 30, geom.Pt(3, 3)); ok {
		t.Fatal("outside point reported inside")
	}
}

func TestTriangleBandFullAndEmpty(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	// Band covering the whole value range returns the whole triangle.
	pg := TriangleBand(p0, p1, p2, 1, 2, 3, 0, 10)
	if pg == nil || !almostEq(pg.Area(), 0.5) {
		t.Fatalf("full band area = %v", pg.Area())
	}
	// Band outside the range returns nil.
	if pg := TriangleBand(p0, p1, p2, 1, 2, 3, 5, 6); pg != nil {
		t.Fatalf("out-of-range band = %v", pg)
	}
}

func TestTriangleBandHalf(t *testing.T) {
	// w = x over the unit right triangle (0,0),(1,0),(0,1):
	// region with w <= t is the trapezoid left of x = t.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	pg := TriangleBand(p0, p1, p2, 0, 1, 0, 0, 0.5)
	// Area left of x=0.5 inside the triangle = 0.5 - (0.5)^2/2 = 0.375.
	if !almostEq(pg.Area(), 0.375) {
		t.Fatalf("half band area = %g, want 0.375", pg.Area())
	}
}

func TestTriangleBandDegenerate(t *testing.T) {
	// Degenerate (collinear) triangle with constant value.
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2)
	if pg := TriangleBand(p0, p1, p2, 5, 5, 5, 4, 6); pg == nil {
		t.Fatal("in-band degenerate triangle dropped")
	}
	if pg := TriangleBand(p0, p1, p2, 5, 5, 5, 6, 7); pg != nil {
		t.Fatal("out-of-band degenerate triangle kept")
	}
}

func TestQuadBand(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}
	// Values v = x at corners: v0=0 (0,0), v1=1 (1,0), v2=1 (1,1), v3=0 (0,1).
	pgs := QuadBand(r, 0, 1, 1, 0, 0.25, 0.75)
	total := 0.0
	for _, pg := range pgs {
		total += pg.Area()
	}
	if !almostEq(total, 0.5) {
		t.Fatalf("quad band area = %g, want 0.5", total)
	}
	// Full range returns the entire cell.
	pgs = QuadBand(r, 0, 1, 1, 0, -1, 2)
	total = 0
	for _, pg := range pgs {
		total += pg.Area()
	}
	if !almostEq(total, 1) {
		t.Fatalf("full quad area = %g", total)
	}
	// Empty band.
	if pgs := QuadBand(r, 0, 1, 1, 0, 5, 6); len(pgs) != 0 {
		t.Fatalf("out-of-range quad band = %v", pgs)
	}
}

func TestQuadValue(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(2, 2)}
	// v = x + y at corners: 0, 2, 4, 2.
	cases := []struct {
		p    geom.Point
		want float64
	}{
		{geom.Pt(0, 0), 0}, {geom.Pt(2, 0), 2}, {geom.Pt(2, 2), 4},
		{geom.Pt(0, 2), 2}, {geom.Pt(1, 1), 2},
	}
	for i, c := range cases {
		got, ok := QuadValue(r, 0, 2, 4, 2, c.p)
		if !ok {
			t.Fatalf("case %d: outside", i)
		}
		if !almostEq(got, c.want) {
			t.Fatalf("case %d: value = %g, want %g", i, got, c.want)
		}
	}
	if _, ok := QuadValue(r, 0, 2, 4, 2, geom.Pt(5, 5)); ok {
		t.Fatal("outside point accepted")
	}
}

func TestIsoline(t *testing.T) {
	p0, p1, p2 := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)
	// w = x: isoline x = 0.5 crosses edges (p0,p1) and (p1,p2).
	pts := Isoline(p0, p1, p2, 0, 1, 0, 0.5)
	if len(pts) != 2 {
		t.Fatalf("isoline points = %v", pts)
	}
	for _, p := range pts {
		if !almostEq(p.X, 0.5) {
			t.Fatalf("isoline point %v not on x=0.5", p)
		}
	}
	// Level outside the range: no line.
	if pts := Isoline(p0, p1, p2, 0, 1, 0, 2); len(pts) != 0 {
		t.Fatalf("phantom isoline %v", pts)
	}
}

func TestBandAreaMatchesMonteCarlo(t *testing.T) {
	// Property: the band polygon area approximates the measure of
	// {p : lo <= w(p) <= hi} estimated by sampling.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p0 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		p1 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		p2 := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		if math.Abs(geom.Orient(p0, p1, p2)) < 0.5 {
			continue // skip slivers: Monte-Carlo too noisy
		}
		w0, w1, w2 := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		lo := rng.Float64() * 10
		hi := lo + rng.Float64()*5
		pg := TriangleBand(p0, p1, p2, w0, w1, w2, lo, hi)
		got := pg.Area()

		// Monte-Carlo estimate over the triangle.
		const samples = 20000
		in := 0
		for s := 0; s < samples; s++ {
			a, b := rng.Float64(), rng.Float64()
			if a+b > 1 {
				a, b = 1-a, 1-b
			}
			p := p0.Add(p1.Sub(p0).Scale(a)).Add(p2.Sub(p0).Scale(b))
			w, ok := TriangleValue(p0, p1, p2, w0, w1, w2, p)
			if ok && lo <= w && w <= hi {
				in++
			}
		}
		triArea := math.Abs(geom.Orient(p0, p1, p2)) / 2
		want := triArea * float64(in) / samples
		if math.Abs(got-want) > 0.05*triArea+0.02 {
			t.Fatalf("trial %d: band area %g vs Monte-Carlo %g (tri %g)", trial, got, want, triArea)
		}
	}
}

func TestBandWithinTriangleProperty(t *testing.T) {
	// The band region always lies inside the triangle's bounding box and its
	// area never exceeds the triangle's.
	f := func(x0, y0, x1, y1, x2, y2, w0, w1, w2, lo, width float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 8) }
		p0, p1, p2 := geom.Pt(clamp(x0), clamp(y0)), geom.Pt(clamp(x1), clamp(y1)), geom.Pt(clamp(x2), clamp(y2))
		cw0, cw1, cw2 := clamp(w0), clamp(w1), clamp(w2)
		l := clamp(lo)
		h := l + clamp(width)
		pg := TriangleBand(p0, p1, p2, cw0, cw1, cw2, l, h)
		if pg == nil {
			return true
		}
		tri := geom.Polygon{p0, p1, p2}
		if pg.Area() > tri.Area()+1e-6 {
			return false
		}
		tb := tri.Bounds()
		pb := pg.Bounds()
		return pb.Min.X >= tb.Min.X-1e-6 && pb.Min.Y >= tb.Min.Y-1e-6 &&
			pb.Max.X <= tb.Max.X+1e-6 && pb.Max.Y <= tb.Max.Y+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// refClipConvex is the allocating Sutherland–Hodgman step geom.ClipConvex was
// before the append kernel, kept verbatim as the reference.
func refClipConvex(pg geom.Polygon, h geom.HalfPlane) geom.Polygon {
	if len(pg) == 0 {
		return nil
	}
	out := make(geom.Polygon, 0, len(pg)+2)
	for i := range pg {
		cur := pg[i]
		nxt := pg[(i+1)%len(pg)]
		curIn, nxtIn := h.Inside(cur), h.Inside(nxt)
		if curIn {
			out = append(out, cur)
		}
		if curIn != nxtIn {
			d := nxt.Sub(cur)
			denom := h.N.Dot(d)
			if math.Abs(denom) > 1e-300 {
				t := (h.C - h.N.Dot(cur)) / denom
				if t < 0 {
					t = 0
				} else if t > 1 {
					t = 1
				}
				out = append(out, cur.Add(d.Scale(t)))
			}
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// refTriangleBand is TriangleBand as it was before the append kernel: orient
// a copy counter-clockwise, clip it against value <= hi, clip the result
// against value >= lo — three to five heap objects per triangle. The kernel
// must reproduce its vertices bit for bit.
func refTriangleBand(p0, p1, p2 geom.Point, w0, w1, w2 float64, lo, hi float64) geom.Polygon {
	tri := geom.Polygon{p0, p1, p2}
	grad, b, ok := TriangleGradient(p0, p1, p2, w0, w1, w2)
	if !ok {
		avg := (w0 + w1 + w2) / 3
		if lo <= avg && avg <= hi {
			return tri
		}
		return nil
	}
	pg := refClipConvex(geom.EnsureCCW(tri), geom.HalfPlane{N: grad, C: hi - b})
	if pg == nil {
		return nil
	}
	return refClipConvex(pg, geom.HalfPlane{N: geom.Pt(-grad.X, -grad.Y), C: b - lo})
}

// bandCase is one triangle and one band.
type bandCase struct {
	p0, p1, p2 geom.Point
	w0, w1, w2 float64
	lo, hi     float64
}

// sameVertices reports whether got has exactly want's vertices, compared as
// bit patterns: -0 differs from +0, and a NaN matches only the same NaN.
func sameVertices(got []geom.Point, want geom.Polygon) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameBits(got[i].X, want[i].X) || !sameBits(got[i].Y, want[i].Y) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b have the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernel holds every entry point to the reference on one case: the
// append kernel behind a prefix it must leave alone, and the two wrappers.
func checkKernel(t *testing.T, c bandCase) {
	t.Helper()
	want := refTriangleBand(c.p0, c.p1, c.p2, c.w0, c.w1, c.w2, c.lo, c.hi)
	prefix := geom.Pt(-7, 7)
	got := AppendTriangleBand([]geom.Point{prefix}, c.p0, c.p1, c.p2, c.w0, c.w1, c.w2, c.lo, c.hi)
	if got[0] != prefix || !sameVertices(got[1:], want) {
		t.Fatalf("%+v:\nAppendTriangleBand = %v\nreference          = %v", c, got[1:], want)
	}
	if pg := TriangleBand(c.p0, c.p1, c.p2, c.w0, c.w1, c.w2, c.lo, c.hi); (pg == nil) != (want == nil) || !sameVertices(pg, want) {
		t.Fatalf("%+v:\nTriangleBand = %v\nreference    = %v", c, pg, want)
	}
}

// bandCases draws n cases from the shapes the read path meets and the ones
// that break clippers: free triangles of either orientation, DEM half-cells on
// the integer grid, zero-area triangles (collinear or with a repeated vertex),
// and bands that cover the triangle, miss it, pass exactly through a vertex
// value, or have lo == hi.
func bandCases(seed int64, n int) []bandCase {
	rng := rand.New(rand.NewSource(seed))
	pt := func() geom.Point { return geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100) }
	cases := make([]bandCase, n)
	for i := range cases {
		c := &cases[i]
		switch rng.Intn(5) {
		case 0: // lower-right half of a DEM cell
			x, y := float64(rng.Intn(512)), float64(rng.Intn(512))
			c.p0, c.p1, c.p2 = geom.Pt(x, y), geom.Pt(x+1, y), geom.Pt(x+1, y+1)
		case 1: // upper-left half
			x, y := float64(rng.Intn(512)), float64(rng.Intn(512))
			c.p0, c.p1, c.p2 = geom.Pt(x, y), geom.Pt(x+1, y+1), geom.Pt(x, y+1)
		case 2: // zero area
			c.p0, c.p1 = pt(), pt()
			if rng.Intn(2) == 0 {
				c.p2 = c.p1
			} else {
				c.p2 = c.p0.Add(c.p1.Sub(c.p0).Scale(2))
			}
		default: // free, clockwise as often as not
			c.p0, c.p1, c.p2 = pt(), pt(), pt()
		}
		c.w0, c.w1, c.w2 = rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000
		if rng.Intn(8) == 0 {
			c.w1 = c.w0 // an edge on one level
		}
		if rng.Intn(16) == 0 {
			c.w2, c.w1 = c.w0, c.w0 // a flat triangle
		}
		ws := [3]float64{c.w0, c.w1, c.w2}
		wmin, wmax := min(c.w0, c.w1, c.w2), max(c.w0, c.w1, c.w2)
		switch rng.Intn(7) {
		case 0: // covers everything
			c.lo, c.hi = wmin-1, wmax+1
		case 1: // misses above
			c.lo, c.hi = wmax+1, wmax+2
		case 2: // misses below
			c.lo, c.hi = wmin-2, wmin-1
		case 3: // a bound through a vertex value
			c.lo, c.hi = ws[rng.Intn(3)], wmax+rng.Float64()
			if rng.Intn(2) == 0 {
				c.lo, c.hi = wmin-rng.Float64(), ws[rng.Intn(3)]
			}
		case 4: // zero width
			c.lo = wmin + rng.Float64()*(wmax-wmin)
			if rng.Intn(2) == 0 {
				c.lo = ws[rng.Intn(3)]
			}
			c.hi = c.lo
		default: // a slice of the range
			c.lo = wmin + rng.Float64()*(wmax-wmin)
			c.hi = c.lo + rng.Float64()*(wmax-wmin)/4
		}
	}
	return cases
}

func TestBandKernelBitIdentical(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	regions := 0
	for _, c := range bandCases(1502, n) {
		checkKernel(t, c)
		if refTriangleBand(c.p0, c.p1, c.p2, c.w0, c.w1, c.w2, c.lo, c.hi) != nil {
			regions++
		}
	}
	// The mix must exercise both outcomes, or the comparison proves little.
	if regions < n/4 || regions > 3*n/4 {
		t.Fatalf("%d of %d cases produced a region; the generator is lopsided", regions, n)
	}
}

// FuzzTriangleBand holds the kernel to the reference on any eleven floats.
// Nothing is skipped: Cell.Validate refuses NaN and ±Inf values only when a
// field is built or updated, while field.DecodeCell and
// field.CellIntervalFromRecord take a reopened file's bits as they are, so the
// kernel meets whatever a file holds — and must still match the reference bit
// for bit, NaNs included.
func FuzzTriangleBand(f *testing.F) {
	for _, c := range bandCases(1505, 64) {
		f.Add(c.p0.X, c.p0.Y, c.p1.X, c.p1.Y, c.p2.X, c.p2.Y, c.w0, c.w1, c.w2, c.lo, c.hi)
	}
	nan, inf := math.NaN(), math.Inf(1)
	payload := math.Float64frombits(0x7ff0_0000_dead_beef) // a signalling NaN
	for _, v := range [][11]float64{
		{0, 0, 1, 0, 1, 1, nan, 1, 2, 0, 3},
		{0, 0, 1, 0, 1, 1, 0, 1, 2, payload, 3},
		{0, 0, 1, 0, 1, 1, 0, 1, 2, 0.5, nan},
		{0, nan, 1, 0, 1, 1, 0, 1, 2, 0, 3},
		{0, 0, inf, 0, inf, 1, 0, 1, 2, 0, 3},
		{0, 0, 1, 0, 1, 1, 0, inf, 2, 0, 3},
		{0, 0, 1, 0, 1, 1, -inf, 0, inf, -1, 1},
		{0, 0, 1, 0, 1, 1, 0, 1, 2, -inf, inf},
		{-1e308, 0, 1e308, 0, 1e308, 1, 0, 1, 2, 0.5, 1.5},
		{0, 0, 1e-310, 0, 0, 1e-310, 0, 1, 2, 0.5, 1.5},
	} {
		f.Add(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10])
	}
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, w0, w1, w2, lo, hi float64) {
		checkKernel(t, bandCase{geom.Pt(x0, y0), geom.Pt(x1, y1), geom.Pt(x2, y2), w0, w1, w2, lo, hi})
	})
}
