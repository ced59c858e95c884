package field

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fielddb/internal/geom"
)

func quadCell(id CellID, r geom.Rect, v0, v1, v2, v3 float64) *Cell {
	return &Cell{
		ID: id,
		Vertices: []geom.Point{
			r.Min, geom.Pt(r.Max.X, r.Min.Y), r.Max, geom.Pt(r.Min.X, r.Max.Y),
		},
		Values: []float64{v0, v1, v2, v3},
	}
}

func triCell(id CellID, p0, p1, p2 geom.Point, w0, w1, w2 float64) *Cell {
	return &Cell{
		ID:       id,
		Vertices: []geom.Point{p0, p1, p2},
		Values:   []float64{w0, w1, w2},
	}
}

func TestCellInterval(t *testing.T) {
	c := quadCell(0, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, 3, 7, 1, 5)
	iv := c.Interval()
	if iv.Lo != 1 || iv.Hi != 7 {
		t.Fatalf("Interval = %v", iv)
	}
}

func TestCellCenterBounds(t *testing.T) {
	c := triCell(0, geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(0, 2), 1, 2, 3)
	ctr := c.Center()
	if math.Abs(ctr.X-2.0/3) > 1e-12 || math.Abs(ctr.Y-2.0/3) > 1e-12 {
		t.Fatalf("Center = %v", ctr)
	}
	b := c.Bounds()
	if b.Min != geom.Pt(0, 0) || b.Max != geom.Pt(2, 2) {
		t.Fatalf("Bounds = %v", b)
	}
}

// TestCellBoundsMatchesFold holds Cell.Bounds to geom.RectFromPoints bit for
// bit: on DEM quads, which take its shortcut, and on four-vertex cells that
// only nearly look like one — ±0 pairs, NaN, ±Inf, equal or swapped corners.
func TestCellBoundsMatchesFold(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 2, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(41))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < 50_000; i++ {
		pick := func() float64 { return pool[rng.Intn(len(pool))] }
		r := geom.Rect{Min: geom.Pt(pick(), pick()), Max: geom.Pt(pick(), pick())}
		c := quadCell(0, r, 0, 0, 0, 0)
		if rng.Intn(2) == 0 { // perturb one coordinate
			v := &c.Vertices[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				v.X = pick()
			} else {
				v.Y = pick()
			}
		}
		got, want := c.Bounds(), geom.RectFromPoints(c.Vertices...)
		if !same(got.Min.X, want.Min.X) || !same(got.Min.Y, want.Min.Y) || !same(got.Max.X, want.Max.X) || !same(got.Max.Y, want.Max.Y) {
			t.Fatalf("%v: Bounds %v, fold %v", c.Vertices, got, want)
		}
	}
}

func TestCellValidate(t *testing.T) {
	good := triCell(0, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	bad := &Cell{ID: 1, Vertices: []geom.Point{{X: 0, Y: 0}}, Values: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("1-vertex cell accepted")
	}
	mismatch := &Cell{ID: 2, Vertices: []geom.Point{{}, {}, {}}, Values: []float64{1}}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("vertex/value mismatch accepted")
	}
	nan := triCell(3, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), math.NaN(), 2, 3)
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestInterpolateTriangleAndQuad(t *testing.T) {
	tri := triCell(0, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 0, 1, 2)
	got, ok := Interpolate(tri, geom.Pt(0.25, 0.25))
	if !ok || math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("tri interp = %g ok=%v, want 0.75", got, ok)
	}
	quad := quadCell(1, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, 0, 1, 2, 1)
	got, ok = Interpolate(quad, geom.Pt(0.5, 0.5))
	if !ok || math.Abs(got-1) > 1e-12 {
		t.Fatalf("quad interp = %g ok=%v, want 1", got, ok)
	}
	bad := &Cell{Vertices: []geom.Point{{}, {}}, Values: []float64{0, 0}}
	if _, ok := Interpolate(bad, geom.Pt(0, 0)); ok {
		t.Fatal("2-vertex cell interpolated")
	}
}

func TestBandDispatch(t *testing.T) {
	tri := triCell(0, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 0, 1, 2)
	pgs := Band(tri, -1, 3)
	if len(pgs) != 1 || math.Abs(pgs[0].Area()-0.5) > 1e-9 {
		t.Fatalf("tri band = %v", pgs)
	}
	if pgs := Band(tri, 10, 20); pgs != nil {
		t.Fatalf("out-of-range tri band = %v", pgs)
	}
	quad := quadCell(1, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, 0, 1, 2, 1)
	pgs = Band(quad, -1, 3)
	total := 0.0
	for _, pg := range pgs {
		total += pg.Area()
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("quad band total area = %g", total)
	}
	bad := &Cell{Vertices: []geom.Point{{}, {}}, Values: []float64{0, 0}}
	if Band(bad, 0, 1) != nil {
		t.Fatal("2-vertex band produced polygons")
	}
}

func TestCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		k := 3 + rng.Intn(2)
		c := &Cell{ID: CellID(rng.Uint32())}
		for i := 0; i < k; i++ {
			c.Vertices = append(c.Vertices, geom.Pt(rng.NormFloat64()*100, rng.NormFloat64()*100))
			c.Values = append(c.Values, rng.NormFloat64()*50)
		}
		rec := AppendCell(nil, c)
		if len(rec) != EncodedSize(k) {
			t.Fatalf("encoded size %d, want %d", len(rec), EncodedSize(k))
		}
		var back Cell
		if err := DecodeCell(rec, &back); err != nil {
			t.Fatal(err)
		}
		if back.ID != c.ID || len(back.Vertices) != k {
			t.Fatalf("roundtrip header mismatch")
		}
		for i := 0; i < k; i++ {
			if back.Vertices[i] != c.Vertices[i] || back.Values[i] != c.Values[i] {
				t.Fatalf("roundtrip vertex %d mismatch", i)
			}
		}
	}
}

func TestCodecReusesBuffers(t *testing.T) {
	c := triCell(7, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 1, 2, 3)
	rec := AppendCell(nil, c)
	dst := Cell{
		Vertices: make([]geom.Point, 0, 8),
		Values:   make([]float64, 0, 8),
	}
	vcap := cap(dst.Vertices)
	if err := DecodeCell(rec, &dst); err != nil {
		t.Fatal(err)
	}
	if cap(dst.Vertices) != vcap {
		t.Fatal("DecodeCell reallocated vertices despite capacity")
	}
}

func TestCodecErrors(t *testing.T) {
	if err := DecodeCell([]byte{1, 2}, &Cell{}); err == nil {
		t.Fatal("short record accepted")
	}
	c := triCell(0, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 1, 2, 3)
	rec := AppendCell(nil, c)
	rec[4] = 9 // bogus vertex count
	if err := DecodeCell(rec, &Cell{}); err == nil {
		t.Fatal("bogus vertex count accepted")
	}
	rec[4] = 4 // count says 4, payload has 3
	if err := DecodeCell(rec, &Cell{}); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestCodecQuickProperty(t *testing.T) {
	f := func(id uint32, xs [4]float64, ys [4]float64, ws [4]float64, quad bool) bool {
		k := 3
		if quad {
			k = 4
		}
		c := &Cell{ID: CellID(id)}
		for i := 0; i < k; i++ {
			if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) || math.IsNaN(ws[i]) {
				return true
			}
			c.Vertices = append(c.Vertices, geom.Pt(xs[i], ys[i]))
			c.Values = append(c.Values, ws[i])
		}
		var back Cell
		if err := DecodeCell(AppendCell(nil, c), &back); err != nil {
			return false
		}
		if back.ID != c.ID {
			return false
		}
		for i := 0; i < k; i++ {
			if back.Vertices[i] != c.Vertices[i] || back.Values[i] != c.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsolines(t *testing.T) {
	// Triangle with w = x: level 0.5 cuts a vertical segment.
	tri := triCell(0, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), 0, 1, 0)
	segs := Isolines(tri, 0.5)
	if len(segs) != 1 {
		t.Fatalf("tri isolines = %v", segs)
	}
	for _, p := range []geom.Point{segs[0][0], segs[0][1]} {
		if math.Abs(p.X-0.5) > 1e-9 {
			t.Fatalf("isoline point %v not on x = 0.5", p)
		}
	}
	// Quad with w = x: the level cuts both half-triangles.
	quad := quadCell(1, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, 0, 1, 1, 0)
	segs = Isolines(quad, 0.5)
	total := 0.0
	for _, s := range segs {
		total += s[0].Dist(s[1])
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("quad isoline length = %g, want 1", total)
	}
	// Out-of-range level: nothing.
	if segs := Isolines(quad, 5); len(segs) != 0 {
		t.Fatalf("phantom isolines %v", segs)
	}
	// Unsupported cell shape.
	bad := &Cell{Vertices: []geom.Point{{}, {}}, Values: []float64{0, 0}}
	if Isolines(bad, 0) != nil {
		t.Fatal("2-vertex isolines")
	}
}

func TestValueRangeOfGeneric(t *testing.T) {
	g := &gridStub{nx: 4, ny: 4, fn: func(x, y float64) float64 { return x - y }}
	vr := ValueRangeOf(g)
	if vr.Lo != -4 || vr.Hi != 4 {
		t.Fatalf("ValueRangeOf = %v", vr)
	}
	if b := g.Bounds(); b.Max != geom.Pt(4, 4) {
		t.Fatalf("stub bounds %v", b)
	}
}

func TestVectorFieldBounds(t *testing.T) {
	u := &gridStub{nx: 3, ny: 3, fn: func(x, y float64) float64 { return x }}
	v := &gridStub{nx: 3, ny: 3, fn: func(x, y float64) float64 { return y }}
	vf, err := NewVectorField(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if vf.Bounds() != u.Bounds() {
		t.Fatalf("Bounds = %v", vf.Bounds())
	}
}
