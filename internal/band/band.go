// Package band extracts exact answer regions for field value queries: given
// a cell with linearly interpolated sample values and a query band
// [lo, hi], it computes the sub-region of the cell where the interpolated
// value lies inside the band. This is the "estimation step" of the paper's
// search algorithm (Algorithm Estimate, §3.2) — the inverse interpolation
// f⁻¹(w) applied to the sample points of candidate cells.
//
// Under linear interpolation the value function over a triangle is affine,
// so the answer region is the triangle clipped by two half-planes — a convex
// polygon. Rectangular DEM cells are split into two triangles along a fixed
// diagonal, which is the standard piecewise-linear reading of "a simple
// linear interpolation" over a grid cell.
package band

import (
	"fielddb/internal/geom"
)

// TriangleGradient returns the affine value function over the triangle
// (p0,p1,p2) with vertex values (w0,w1,w2): value(p) = G·p + b.
// ok is false when the triangle is degenerate (zero area).
func TriangleGradient(p0, p1, p2 geom.Point, w0, w1, w2 float64) (grad geom.Point, b float64, ok bool) {
	// Solve the 2x2 system from value differences along two edges.
	e1 := p1.Sub(p0)
	e2 := p2.Sub(p0)
	det := e1.Cross(e2)
	if det > -1e-300 && det < 1e-300 {
		return geom.Point{}, 0, false
	}
	d1 := w1 - w0
	d2 := w2 - w0
	gx := (d1*e2.Y - d2*e1.Y) / det
	gy := (d2*e1.X - d1*e2.X) / det
	grad = geom.Pt(gx, gy)
	b = w0 - grad.Dot(p0)
	return grad, b, true
}

// TriangleValue returns the linearly interpolated value at p inside the
// triangle (p0,p1,p2) using barycentric coordinates, and whether p lies
// inside (within a small tolerance).
func TriangleValue(p0, p1, p2 geom.Point, w0, w1, w2 float64, p geom.Point) (float64, bool) {
	det := geom.Orient(p0, p1, p2)
	if det > -1e-300 && det < 1e-300 {
		return 0, false
	}
	l0 := geom.Orient(p1, p2, p) / det
	l1 := geom.Orient(p2, p0, p) / det
	l2 := 1 - l0 - l1
	const eps = -1e-9
	if l0 < eps || l1 < eps || l2 < eps {
		return 0, false
	}
	return l0*w0 + l1*w1 + l2*w2, true
}

// AppendTriangleBand appends to dst the region of the triangle where the
// interpolated value lies in [lo, hi] — nothing, or the vertices of a single
// convex polygon — and returns the extended slice. A degenerate triangle whose
// (constant) value lies in the band is appended whole. It is the kernel every
// band entry point runs on, and allocates nothing while dst has room for the
// 6 vertices a region can take (see geom.AppendTriangleBand).
func AppendTriangleBand(dst []geom.Point, p0, p1, p2 geom.Point, w0, w1, w2 float64, lo, hi float64) []geom.Point {
	grad, b, ok := TriangleGradient(p0, p1, p2, w0, w1, w2)
	if !ok {
		// Degenerate: treat as constant at the average value.
		avg := (w0 + w1 + w2) / 3
		if lo <= avg && avg <= hi {
			dst = append(dst, p0, p1, p2)
		}
		return dst
	}
	return geom.AppendTriangleBand(dst, p0, p1, p2, grad, b, lo, hi)
}

// AppendQuadBand is AppendTriangleBand over both triangles of an axis-aligned
// quad cell (corner values as for QuadBand). The regions land back to back on
// dst; first is the vertex count of the p0–p1–p2 triangle's region (0 when it
// has none) and the p0–p2–p3 triangle's region is whatever follows it.
//
// It performs AppendTriangleBand's float operations on the same operands, but
// each distinct one once per quad: the two triangles share the corner
// p0 = r.Min, the diagonal p0–p2 and the products of the orientation test,
// and the edge vectors of the one are those of the other.
func AppendQuadBand(dst []geom.Point, r geom.Rect, v0, v1, v2, v3 float64, lo, hi float64) (out []geom.Point, first int) {
	x0, y0, x1, y1 := r.Min.X, r.Min.Y, r.Max.X, r.Max.Y
	p0, p1, p2, p3 := r.Min, geom.Pt(x1, y0), r.Max, geom.Pt(x0, y1)
	// TriangleGradient's edge vectors: p1−p0 = (w, zy) and p2−p0 = (w, h) for
	// the first triangle, p2−p0 and p3−p0 = (zx, h) for the second. zx and zy
	// are 0 unless the corner is infinite.
	w, h, zx, zy := x1-x0, y1-y0, x0-x0, y0-y0
	wh := w * h
	d10, d20, d30 := v1-v0, v2-v0, v3-v0
	// Polygon.SignedArea's cross products: the first triangle's are
	// c01 = x0·y0 − y0·x1, c12 = x1·y1 − y0·x1 and c20 = x1·y0 − y1·x0, the
	// second's x0·y1 − y0·x1, x1·y1 − y1·x0 and x0·y0 − y1·x0. Products are
	// commutative bit for bit, but for which NaN a product of two NaNs is —
	// and any NaN sum reverses the triangle — so four of them cover both.
	x0y0, y0x1, x1y1, y1x0 := x0*y0, y0*x1, x1*y1, y1*x0
	// Both gradients up front, so their four divisions overlap; a degenerate
	// triangle's are computed and not used.
	detA, detB := wh-zy*w, wh-h*zx
	gA := geom.Pt((d10*h-d20*zy)/detA, (d20*w-d10*w)/detA)
	gB := geom.Pt((d20*h-d30*h)/detB, (d30*w-d20*zx)/detB)
	bA, bB := v0-gA.Dot(p0), v0-gB.Dot(p0)

	out = dst
	switch {
	case detA > -1e-300 && detA < 1e-300:
		if avg := (v0 + v1 + v2) / 3; lo <= avg && avg <= hi {
			out = append(out, p0, p1, p2)
		}
	case geom.CCW((x0y0 - y0x1) + (x1y1 - y0x1) + (y0x1 - y1x0)):
		out = geom.AppendCCWTriangleBand(out, p0, p1, p2, gA, bA, lo, hi)
	default:
		out = geom.AppendCCWTriangleBand(out, p2, p1, p0, gA, bA, lo, hi)
	}
	first = len(out) - len(dst)

	switch {
	case detB > -1e-300 && detB < 1e-300:
		if avg := (v0 + v2 + v3) / 3; lo <= avg && avg <= hi {
			out = append(out, p0, p2, p3)
		}
	case geom.CCW((y1x0 - y0x1) + (x1y1 - y1x0) + (x0y0 - y1x0)):
		out = geom.AppendCCWTriangleBand(out, p0, p2, p3, gB, bB, lo, hi)
	default:
		out = geom.AppendCCWTriangleBand(out, p3, p2, p0, gB, bB, lo, hi)
	}
	return out, first
}

// Polygons copies the regions a band kernel left in pts — the first `first`
// vertices, then the rest — into polygons of their own, skipping empty ones.
func Polygons(pts []geom.Point, first int) []geom.Polygon {
	var out []geom.Polygon
	for _, pg := range [2][]geom.Point{pts[:first], pts[first:]} {
		if len(pg) > 0 {
			out = append(out, geom.Polygon(pg).Clone())
		}
	}
	return out
}

// MaxCellVertices is the room the regions of one cell can take on dst: two
// polygons of at most 6 vertices.
const MaxCellVertices = 12

// TriangleBand returns the region of the triangle where the interpolated
// value lies in [lo, hi]. The result is nil or a single convex polygon.
// A degenerate triangle whose (constant) value lies in the band is returned
// whole.
func TriangleBand(p0, p1, p2 geom.Point, w0, w1, w2 float64, lo, hi float64) geom.Polygon {
	var buf [MaxCellVertices]geom.Point
	pg := AppendTriangleBand(buf[:0], p0, p1, p2, w0, w1, w2, lo, hi)
	if len(pg) == 0 {
		return nil
	}
	return geom.Polygon(pg).Clone()
}

// QuadBand returns the answer region of an axis-aligned quad cell with
// corner values in counter-clockwise order (v0 at min corner, v1 at
// (max.X, min.Y), v2 at max corner, v3 at (min.X, max.Y)), split along the
// v0–v2 diagonal into two linear triangles. Zero, one or two convex
// polygons are returned.
func QuadBand(r geom.Rect, v0, v1, v2, v3 float64, lo, hi float64) []geom.Polygon {
	var buf [MaxCellVertices]geom.Point
	return Polygons(AppendQuadBand(buf[:0], r, v0, v1, v2, v3, lo, hi))
}

// QuadValue returns the piecewise-linear interpolated value at p inside the
// quad (same triangle split as QuadBand), and whether p is inside.
func QuadValue(r geom.Rect, v0, v1, v2, v3 float64, p geom.Point) (float64, bool) {
	p0 := r.Min
	p1 := geom.Pt(r.Max.X, r.Min.Y)
	p2 := r.Max
	p3 := geom.Pt(r.Min.X, r.Max.Y)
	if w, ok := TriangleValue(p0, p1, p2, v0, v1, v2, p); ok {
		return w, true
	}
	return TriangleValue(p0, p2, p3, v0, v2, v3, p)
}

// Isoline returns the segment where the interpolated value equals w inside
// the triangle: the degenerate band [w, w]. It returns the segment endpoints
// (0 or 2 points) on the triangle boundary.
//
// When the level passes exactly through a vertex, two edges report that same
// vertex; duplicates are removed before deciding whether a genuine crossing
// exists, so a contour entering through a vertex and leaving through the
// opposite edge is not lost.
func Isoline(p0, p1, p2 geom.Point, w0, w1, w2 float64, w float64) []geom.Point {
	var pts []geom.Point
	// Deduplication tolerance relative to the triangle size.
	size := p0.Dist(p1) + p1.Dist(p2) + p2.Dist(p0)
	tol := size * 1e-12
	add := func(p geom.Point) {
		for _, q := range pts {
			if p.Dist(q) <= tol {
				return
			}
		}
		pts = append(pts, p)
	}
	edge := func(a, b geom.Point, wa, wb float64) {
		if (wa < w && wb < w) || (wa > w && wb > w) {
			return
		}
		if wa == wb {
			return // edge lies on the level; endpoints handled by other edges
		}
		t := (w - wa) / (wb - wa)
		if t < 0 || t > 1 {
			return
		}
		add(a.Add(b.Sub(a).Scale(t)))
	}
	edge(p0, p1, w0, w1)
	edge(p1, p2, w1, w2)
	edge(p2, p0, w2, w0)
	if len(pts) > 2 {
		pts = pts[:2]
	}
	if len(pts) == 1 {
		pts = nil
	}
	return pts
}
