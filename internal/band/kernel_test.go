package band_test

import (
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/band"
	"fielddb/internal/bench"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/workload"
)

// refPolygonArea is geom.Polygon.Area as it was before it dropped the modulo,
// kept verbatim as the reference: the same fold must give the same bits.
func refPolygonArea(pg geom.Polygon) float64 {
	if len(pg) < 3 {
		return 0
	}
	sum := 0.0
	for i := range pg {
		j := (i + 1) % len(pg)
		sum += pg[i].Cross(pg[j])
	}
	return math.Abs(sum) / 2
}

// refCellArea is field.Cell.Area as it was, verbatim.
func refCellArea(c *field.Cell) float64 {
	n := len(c.Vertices)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range c.Vertices {
		q := c.Vertices[(i+1)%n]
		sum += p.Cross(q)
	}
	return math.Abs(sum) / 2
}

// refCellBand is field.AppendBand's chain as it was: the cell's bounds by the
// geom.RectFromPoints fold, split along the v0–v2 diagonal, and the reference
// triangle band on each triangle.
func refCellBand(c *field.Cell, lo, hi float64) [2]geom.Polygon {
	v, w := c.Vertices, c.Values
	if len(v) == 3 {
		return [2]geom.Polygon{band.RefTriangleBand(v[0], v[1], v[2], w[0], w[1], w[2], lo, hi)}
	}
	r := geom.RectFromPoints(v...)
	p1, p3 := geom.Pt(r.Max.X, r.Min.Y), geom.Pt(r.Min.X, r.Max.Y)
	return [2]geom.Polygon{
		band.RefTriangleBand(r.Min, p1, r.Max, w[0], w[1], w[2], lo, hi),
		band.RefTriangleBand(r.Min, r.Max, p3, w[0], w[2], w[3], lo, hi),
	}
}

// checkCell holds the refinement kernel on one cell to the reference chain,
// bit for bit: field.AppendBand's regions behind a prefix it must leave alone,
// their Polygon.Area, the cell's Area and Bounds, and for a quad
// band.QuadBand on those bounds.
func checkCell(t *testing.T, c *field.Cell, lo, hi float64) {
	t.Helper()
	want := refCellBand(c, lo, hi)
	prefix := geom.Pt(-7, 7)
	pts, first := field.AppendBand([]geom.Point{prefix}, c, lo, hi)
	got := [2][]geom.Point{pts[1 : 1+first], pts[1+first:]}
	for i := range got {
		if pts[0] != prefix || !band.SameVertices(got[i], want[i]) {
			t.Fatalf("cell %v %v [%g, %g] region %d:\nAppendBand = %v\nreference  = %v", c.Vertices, c.Values, lo, hi, i, got[i], want[i])
		}
		if a, ra := geom.Polygon(got[i]).Area(), refPolygonArea(want[i]); !sameFloat(a, ra) {
			t.Fatalf("cell %v %v [%g, %g] region %d: Area %v, reference %v", c.Vertices, c.Values, lo, hi, i, a, ra)
		}
	}
	if a, ra := c.Area(), refCellArea(c); !sameFloat(a, ra) {
		t.Fatalf("cell %v: Area %v, reference %v", c.Vertices, a, ra)
	}
	r, rr := c.Bounds(), geom.RectFromPoints(c.Vertices...)
	if !sameFloat(r.Min.X, rr.Min.X) || !sameFloat(r.Min.Y, rr.Min.Y) || !sameFloat(r.Max.X, rr.Max.X) || !sameFloat(r.Max.Y, rr.Max.Y) {
		t.Fatalf("cell %v: Bounds %v, fold %v", c.Vertices, r, rr)
	}
	if len(c.Vertices) != 4 {
		return
	}
	var nonEmpty []geom.Polygon
	for _, pg := range want {
		if len(pg) > 0 {
			nonEmpty = append(nonEmpty, pg)
		}
	}
	qb := band.QuadBand(r, c.Values[0], c.Values[1], c.Values[2], c.Values[3], lo, hi)
	if len(qb) != len(nonEmpty) {
		t.Fatalf("cell %v %v [%g, %g]: QuadBand has %d regions, reference %d", c.Vertices, c.Values, lo, hi, len(qb), len(nonEmpty))
	}
	for i := range qb {
		if !band.SameVertices(qb[i], nonEmpty[i]) {
			t.Fatalf("cell %v %v [%g, %g] region %d:\nQuadBand  = %v\nreference = %v", c.Vertices, c.Values, lo, hi, i, qb[i], nonEmpty[i])
		}
	}
}

// sameFloat is band.SameBits, except that any two NaNs match. An area or a
// bound is NaN only where a cell's corners are, and when two NaNs of
// different payloads meet in one operation Go leaves open which comes out:
// the compiler picks the operand order per call site, and a -race build
// picks differently. Vertices, which no input NaN reaches — a vertex with a
// NaN coordinate fails the half-plane test, and so does every crossing
// through it — are held to their NaN bits.
func sameFloat(a, b float64) bool { return band.SameBits(a, b) || (math.IsNaN(a) && math.IsNaN(b)) }

// quadCell returns the DEM cell over r: min corner first, counter-clockwise.
func quadCell(r geom.Rect, v [4]float64) *field.Cell {
	return &field.Cell{
		Vertices: []geom.Point{r.Min, geom.Pt(r.Max.X, r.Min.Y), r.Max, geom.Pt(r.Min.X, r.Max.Y)},
		Values:   v[:],
	}
}

// edgeQuad draws a quad cell and a band that take the kernel's branches: a
// vertex value exactly at lo or hi, triangles wholly inside or outside each
// plane, zero-width bands, rects of any size and place, rects with a −0
// coordinate or no area, and — as a reopened file may hold them — corners and values
// that are infinite, NaN or near the ends of the float64 range.
func edgeQuad(rng *rand.Rand) (*field.Cell, float64, float64) {
	if rng.Intn(8) == 0 {
		return hostileQuad(rng)
	}
	var r geom.Rect
	switch rng.Intn(6) {
	case 0: // unit, at an integer corner
		x, y := float64(rng.Intn(512)), float64(rng.Intn(512))
		r = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+1, y+1)}
	case 1: // 30 m posts
		x, y := 30*float64(rng.Intn(512)), 30*float64(rng.Intn(512))
		r = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+30, y+30)}
	case 2: // anywhere, any size from 1e-6 to 1e6
		x, y := rng.NormFloat64()*1e6, rng.NormFloat64()*1e6
		r = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+math.Pow(10, rng.Float64()*12-6), y+math.Pow(10, rng.Float64()*12-6))}
	case 3: // a −0 on the min side
		r = geom.Rect{Min: geom.Pt(math.Copysign(0, -1), math.Copysign(0, -1)), Max: geom.Pt(1+rng.Float64(), 1+rng.Float64())}
		if rng.Intn(2) == 0 {
			r.Min.Y = -rng.Float64()
		}
	case 4: // a −0 on the max side
		r = geom.Rect{Min: geom.Pt(-1-rng.Float64(), -1-rng.Float64()), Max: geom.Pt(math.Copysign(0, -1), math.Copysign(0, -1))}
		if rng.Intn(2) == 0 {
			r.Max.X = rng.Float64()
		}
	default: // zero width or height: both triangles degenerate
		x, y := float64(rng.Intn(512)), float64(rng.Intn(512))
		r = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x, y+1)}
		if rng.Intn(2) == 0 {
			r.Max = geom.Pt(x+1, y)
		}
	}
	var v [4]float64
	for j := range v {
		v[j] = 500 + rng.Float64()*40
	}
	switch rng.Intn(6) {
	case 0: // an edge on one level
		v[1] = v[0]
	case 1: // the diagonal on one level
		v[2] = v[0]
	case 2: // flat
		v[1], v[2], v[3] = v[0], v[0], v[0]
	}
	vmin, vmax := min(v[0], v[1], v[2], v[3]), max(v[0], v[1], v[2], v[3])
	at := v[rng.Intn(4)]
	var lo, hi float64
	switch rng.Intn(7) {
	case 0: // a vertex exactly at lo
		lo, hi = at, at+rng.Float64()*20
	case 1: // a vertex exactly at hi
		lo, hi = at-rng.Float64()*20, at
	case 2: // wholly inside both planes
		lo, hi = vmin-rng.Float64(), vmax+rng.Float64()
	case 3: // wholly outside one plane
		lo, hi = vmax+rng.Float64(), vmax+1+rng.Float64()
		if rng.Intn(2) == 0 {
			lo, hi = vmin-1-rng.Float64(), vmin-rng.Float64()
		}
	case 4: // zero width, through a vertex or anywhere
		lo = at
		if rng.Intn(2) == 0 {
			lo = vmin + rng.Float64()*(vmax-vmin)
		}
		hi = lo
	default: // a slice of the range
		lo = 490 + rng.Float64()*50
		hi = lo + rng.Float64()*20
	}
	return quadCell(r, v), lo, hi
}

// hostileQuad is a quad cell whose every coordinate, value and bound may be
// one of the floats that break arithmetic.
func hostileQuad(rng *rand.Rand) (*field.Cell, float64, float64) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 1e-310, -1e-310, 1e308, -1e308,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0042),
	}
	pick := func() float64 {
		if rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64() * 10
	}
	r := geom.Rect{Min: geom.Pt(pick(), pick()), Max: geom.Pt(pick(), pick())}
	v := [4]float64{pick(), pick(), pick(), pick()}
	return quadCell(r, v), pick(), pick()
}

// fixture is the 256² terrain of BenchmarkValueRange or a 4 600-point noise
// TIN, and the cells each query of its 64-query rotation at selectivity sel
// matches by the interval test, excluding zero-width queries (those take the
// isoline path).
type fixture struct {
	cells   []field.Cell
	matches []match
}

type match struct {
	cell int32
	q    geom.Interval
}

func newFixture(tb testing.TB, f field.Field, sels ...float64) fixture {
	tb.Helper()
	fx := fixture{cells: make([]field.Cell, f.NumCells())}
	for id := range fx.cells {
		f.Cell(field.CellID(id), &fx.cells[id])
	}
	for _, sel := range sels {
		for _, q := range workload.Queries(f.ValueRange(), sel, 64, 4217+int64(sel*1e6)) {
			if q.Length() == 0 {
				continue
			}
			for id := range fx.cells {
				if fx.cells[id].Interval().Intersects(q) {
					fx.matches = append(fx.matches, match{int32(id), q})
				}
			}
		}
	}
	return fx
}

func demFixture(tb testing.TB, sels ...float64) fixture {
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		tb.Fatal(err)
	}
	return newFixture(tb, f, sels...)
}

func tinFixture(tb testing.TB, sels ...float64) fixture {
	f, err := workload.NoiseTIN(4600, 907)
	if err != nil {
		tb.Fatal(err)
	}
	return newFixture(tb, f, sels...)
}

// TestQuadBandBitIdentical holds the refinement kernel — field.AppendBand with
// the areas refinement takes of the cell and of its regions — to the
// reference chain: on random unit cells, on cells and bands built to take each
// of the kernel's branches, and on every cell the fixtures' rotations match.
func TestQuadBandBitIdentical(t *testing.T) {
	t.Run("unit", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1503))
		for i := 0; i < 50_000; i++ {
			x, y := float64(rng.Intn(512)), float64(rng.Intn(512))
			r := geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+1, y+1)}
			var v [4]float64
			for j := range v {
				v[j] = 500 + rng.Float64()*40
			}
			lo := 490 + rng.Float64()*50
			hi := lo + rng.Float64()*20
			checkCell(t, quadCell(r, v), lo, hi)
		}
	})
	t.Run("edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1506))
		for i := 0; i < 50_000; i++ {
			c, lo, hi := edgeQuad(rng)
			checkCell(t, c, lo, hi)
		}
	})
	for _, row := range []struct {
		name string
		fx   func(testing.TB, ...float64) fixture
	}{{"fixture/dem", demFixture}, {"fixture/tin", tinFixture}} {
		t.Run(row.name, func(t *testing.T) {
			fx := row.fx(t, bench.Selectivities...)
			if len(fx.matches) == 0 {
				t.Fatal("the rotation matches no cell")
			}
			for _, m := range fx.matches {
				checkCell(t, &fx.cells[m.cell], m.q.Lo, m.q.Hi)
			}
		})
	}
}

// TestBandKernelAllocationFree pins what the kernel exists for: with room in
// dst it allocates nothing, whatever the triangle, quad or band.
func TestBandKernelAllocationFree(t *testing.T) {
	tris := band.TriangleCases(1504, 512)
	rng := rand.New(rand.NewSource(1507))
	quads := make([]struct {
		c      *field.Cell
		lo, hi float64
	}, 512)
	for i := range quads {
		quads[i].c, quads[i].lo, quads[i].hi = edgeQuad(rng)
	}
	dem, tin := demFixture(t, 0.05), tinFixture(t, 0.05)
	dst := make([]geom.Point, 0, band.MaxCellVertices)
	for _, row := range []struct {
		name string
		run  func()
	}{
		{"AppendTriangleBand", func() {
			for _, c := range tris {
				if out := band.AppendTriangleBand(dst, c.P0, c.P1, c.P2, c.W0, c.W1, c.W2, c.Lo, c.Hi); len(out) > band.MaxCellVertices/2 {
					t.Fatalf("%+v: a region of %d vertices", c, len(out))
				}
			}
		}},
		{"AppendQuadBand", func() {
			for _, q := range quads {
				c := q.c
				band.AppendQuadBand(dst, c.Bounds(), c.Values[0], c.Values[1], c.Values[2], c.Values[3], q.lo, q.hi)
			}
		}},
		{"field.AppendBand", func() {
			for _, fx := range []fixture{dem, tin} {
				for _, m := range fx.matches[:min(len(fx.matches), 4096)] {
					field.AppendBand(dst, &fx.cells[m.cell], m.q.Lo, m.q.Hi)
				}
			}
		}},
	} {
		if n := testing.AllocsPerRun(10, row.run); n != 0 {
			t.Errorf("%s allocated %v times with room in dst", row.name, n)
		}
	}
}

// BenchmarkAppendBand times the estimation step's per-cell kernel alone: one
// op is field.AppendBand on one cell the 256² fixture's sel 0.05 rotation
// matches, onto one reused dst, so ns/op is ns per matched cell. Profile it
// with
//
//	go test -run '^$' -bench BenchmarkAppendBand -cpuprofile cpu.out ./internal/band
func BenchmarkAppendBand(b *testing.B) {
	fx := demFixture(b, 0.05)
	dst := make([]geom.Point, 0, band.MaxCellVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &fx.matches[i%len(fx.matches)]
		dst, _ = field.AppendBand(dst[:0], &fx.cells[m.cell], m.q.Lo, m.q.Hi)
	}
}
