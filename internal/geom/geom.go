// Package geom provides the geometric primitives shared by every layer of
// fielddb: points, axis-aligned rectangles, one-dimensional value intervals,
// and simple polygons with convex clipping.
//
// All coordinates are float64. The package is free of I/O and allocation-heavy
// abstractions so it can sit on the hot path of index construction and the
// estimation step of value queries.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D spatial domain of a field.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Orient returns the orientation of the triple (a, b, c):
// positive for counter-clockwise, negative for clockwise, zero for collinear.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Interval is a closed range [Lo, Hi] on the field value domain.
// It is the 1-D minimum bounding rectangle used throughout the paper:
// the interval of a cell bounds every explicit and interpolated value
// inside that cell.
type Interval struct {
	Lo, Hi float64
}

// EmptyInterval returns the identity element for Union: an interval that
// contains nothing and leaves any interval unchanged when united with it.
func EmptyInterval() Interval {
	return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// IsEmpty reports whether iv contains no values.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Length returns Hi-Lo, or 0 for an empty interval.
func (iv Interval) Length() float64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether the value w lies in the closed interval.
func (iv Interval) Contains(w float64) bool { return !iv.IsEmpty() && iv.Lo <= w && w <= iv.Hi }

// Intersects reports whether the closed intervals iv and other share a value.
func (iv Interval) Intersects(other Interval) bool {
	if iv.IsEmpty() || other.IsEmpty() {
		return false
	}
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Union returns the smallest interval containing both iv and other.
func (iv Interval) Union(other Interval) Interval {
	if iv.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return iv
	}
	return Interval{math.Min(iv.Lo, other.Lo), math.Max(iv.Hi, other.Hi)}
}

// Intersect returns the overlap of the two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	out := Interval{math.Max(iv.Lo, other.Lo), math.Min(iv.Hi, other.Hi)}
	if out.Lo > out.Hi {
		return EmptyInterval()
	}
	return out
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// Rect is a closed axis-aligned rectangle in the spatial domain.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectFromPoints returns the bounding rectangle of the given points. It sits
// on the refinement hot path (Cell.Bounds), so it folds the coordinates
// directly; the min and max builtins order ±0 and propagate NaN exactly as the
// Union of single-point rectangles does.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r.Min.X, r.Max.X = min(r.Min.X, p.X), max(r.Max.X, p.X)
		r.Min.Y, r.Max.Y = min(r.Min.Y, p.Y), max(r.Max.Y, p.Y)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the extent along X.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the extent along Y.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r. The Hilbert value of a cell is, per the
// paper, the Hilbert value of the center of the cell.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether p lies inside the closed rectangle.
func (r Rect) ContainsPoint(p Point) bool {
	return !r.IsEmpty() &&
		r.Min.X <= p.X && p.X <= r.Max.X &&
		r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Intersects reports whether the closed rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty rect]"
	}
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// Polygon is a simple polygon given by its vertices in order.
// Answer regions produced by the estimation step are polygons.
type Polygon []Point

// Area returns the absolute area of the polygon (shoelace formula).
func (pg Polygon) Area() float64 {
	if len(pg) < 3 {
		return 0
	}
	return math.Abs(pg.shoelace()) / 2
}

// shoelace returns twice the signed area of a non-empty ring: the cross
// products of consecutive vertices, the closing edge last, added left to
// right onto 0.
func (pg Polygon) shoelace() float64 {
	sum := 0.0
	prev := pg[0]
	for _, p := range pg[1:] {
		sum += prev.Cross(p)
		prev = p
	}
	return sum + prev.Cross(pg[0])
}

// Centroid returns the area centroid of the polygon. For degenerate polygons
// (fewer than 3 vertices or zero area) it returns the vertex average.
func (pg Polygon) Centroid() Point {
	if len(pg) == 0 {
		return Point{}
	}
	var cx, cy, a float64
	for i := range pg {
		j := (i + 1) % len(pg)
		cr := pg[i].Cross(pg[j])
		cx += (pg[i].X + pg[j].X) * cr
		cy += (pg[i].Y + pg[j].Y) * cr
		a += cr
	}
	if math.Abs(a) < 1e-12 {
		var sx, sy float64
		for _, p := range pg {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(pg))
		return Point{sx / n, sy / n}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Bounds returns the bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect { return RectFromPoints(pg...) }

// Clone returns a deep copy of the polygon.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// HalfPlane describes the set of points p with N·p <= C. Clipping a convex
// polygon against half-planes is how the estimation step carves the exact
// answer region out of a triangle or grid cell under linear interpolation.
type HalfPlane struct {
	N Point   // outward normal
	C float64 // offset: inside means N·p <= C
}

// Inside reports whether p satisfies the half-plane constraint.
func (h HalfPlane) Inside(p Point) bool { return within(h.N.Dot(p), h.C) }

// within is the half-plane test on a vertex's dot product N·p against the
// offset C, with the clipper's absolute tolerance.
func within(dot, c float64) bool { return dot <= c+1e-12 }

// appendEdge is one edge cur→nxt of the Sutherland–Hodgman step against h,
// given both ends' dot products with h.N: it appends cur if it is inside, and
// the crossing point if the edge leaves or enters the half-plane.
func appendEdge(dst []Point, cur, nxt Point, dc, dn float64, h HalfPlane) []Point {
	curIn := within(dc, h.C)
	if curIn {
		dst = append(dst, cur)
	}
	if curIn != within(dn, h.C) {
		// Edge crosses the boundary N·p = C; find the crossing point.
		d := nxt.Sub(cur)
		denom := h.N.Dot(d)
		if math.Abs(denom) > 1e-300 {
			t := (h.C - dc) / denom
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			dst = append(dst, cur.Add(d.Scale(t)))
		}
	}
	return dst
}

// appendClip is the Sutherland–Hodgman step: it appends to dst the convex
// polygon pg clipped against the half-plane h and returns the extended slice.
// Each vertex's dot product with h.N is computed once and serves both edges
// it ends. dst must not alias pg. The result can have fewer than three
// vertices; callers decide what an empty clip is.
func appendClip(dst, pg []Point, h HalfPlane) []Point {
	if len(pg) == 0 {
		return dst
	}
	cur, dc := pg[0], h.N.Dot(pg[0])
	first, d0 := cur, dc
	for _, nxt := range pg[1:] {
		dn := h.N.Dot(nxt)
		dst = appendEdge(dst, cur, nxt, dc, dn, h)
		cur, dc = nxt, dn
	}
	return appendEdge(dst, cur, first, dc, d0, h)
}

// ClipConvex clips the convex polygon pg against the half-plane h using the
// Sutherland–Hodgman step. The result is convex (possibly empty).
func ClipConvex(pg Polygon, h HalfPlane) Polygon {
	if len(pg) == 0 {
		return nil
	}
	out := appendClip(make(Polygon, 0, len(pg)+2), pg, h)
	if len(out) < 3 {
		return nil
	}
	return out
}

// AppendTriangleBand clips the triangle (p0, p1, p2) against both half-planes
// of a value band and appends the surviving convex polygon to dst: given the
// linear value function value(p) = grad·p + b, it keeps the region where
// lo <= value(p) <= hi. dst comes back unchanged when fewer than three
// vertices survive. Nothing is allocated while dst has room for 6 vertices:
// at most 5 for two parallel cuts, 6 if rounding alone flips a vertex's side.
//
// The float operations, their operands and their order are those of orienting
// the triangle with EnsureCCW and calling ClipConvex twice, so the vertices are
// bit-identical to that chain.
func AppendTriangleBand(dst []Point, p0, p1, p2, grad Point, b, lo, hi float64) []Point {
	if !CCW(p0.Cross(p1) + p1.Cross(p2) + p2.Cross(p0)) {
		p0, p2 = p2, p0
	}
	return AppendCCWTriangleBand(dst, p0, p1, p2, grad, b, lo, hi)
}

// CCW is EnsureCCW's test on a triangle's shoelace sum: the ring is kept when
// its SignedArea is >= 0 and reversed otherwise, NaN included. The sum may
// drop SignedArea's leading 0 + , which only changes the sign of a zero sum;
// the halving stays, since the smallest negative subnormal halves to -0.
func CCW(shoelace float64) bool { return shoelace/2 >= 0 }

// AppendCCWTriangleBand is AppendTriangleBand for a triangle its caller has
// already oriented as EnsureCCW would (see CCW): (p0, p1, p2) is clipped in
// that order.
//
// Each vertex's dot product with a plane's normal is computed once, exactly as
// the clip computes it, and the clip's own test classifies the triangle
// before any clipping: all three vertices inside the value <= hi plane make
// that clip the triangle itself, none make it empty, and the same goes for
// the value >= lo plane (normal -grad, its dot taken directly rather than as
// -(grad·p), which a fused multiply-add could round differently). A triangle
// inside both planes is appended as it is; only a triangle some plane cuts
// is clipped.
func AppendCCWTriangleBand(dst []Point, p0, p1, p2, grad Point, b, lo, hi float64) []Point {
	// value(p) <= hi   <=>   G·p <= hi - b
	upper := HalfPlane{N: grad, C: hi - b}
	// value(p) >= lo   <=>   -G·p <= b - lo
	lower := HalfPlane{N: Point{-grad.X, -grad.Y}, C: b - lo}
	u0, u1, u2 := grad.Dot(p0), grad.Dot(p1), grad.Dot(p2)
	in0, in1, in2 := within(u0, upper.C), within(u1, upper.C), within(u2, upper.C)
	n := len(dst)
	switch {
	case !in0 && !in1 && !in2:
		return dst
	case in0 && in1 && in2:
		l0, l1, l2 := lower.N.Dot(p0), lower.N.Dot(p1), lower.N.Dot(p2)
		m0, m1, m2 := within(l0, lower.C), within(l1, lower.C), within(l2, lower.C)
		if m0 && m1 && m2 {
			return append(dst, p0, p1, p2)
		}
		if !m0 && !m1 && !m2 {
			return dst
		}
		dst = appendEdge(dst, p0, p1, l0, l1, lower)
		dst = appendEdge(dst, p1, p2, l1, l2, lower)
		dst = appendEdge(dst, p2, p0, l2, l0, lower)
	default:
		// The upper cut lands on dst; when the lower plane keeps all of
		// it, it is the region. A 3-ring has at most two in/out transitions
		// whatever the rounding, so the cut has at most 4 vertices.
		dst = appendEdge(dst, p0, p1, u0, u1, upper)
		dst = appendEdge(dst, p1, p2, u1, u2, upper)
		dst = appendEdge(dst, p2, p0, u2, u0, upper)
		if len(dst)-n < 3 {
			return dst[:n]
		}
		for _, p := range dst[n:] {
			if !within(lower.N.Dot(p), lower.C) {
				var cut [4]Point
				k := copy(cut[:], dst[n:])
				dst = appendClip(dst[:n], cut[:k], lower)
				break
			}
		}
	}
	if len(dst)-n < 3 {
		return dst[:n]
	}
	return dst
}

// ConvexIntersect returns the intersection of two convex polygons by clipping
// a against every edge of b. Degenerate (zero-area) operands yield nil: a
// zero-length edge has no well-defined inside half-plane.
func ConvexIntersect(a, b Polygon) Polygon {
	if len(a) < 3 || len(b) < 3 {
		return nil
	}
	if a.Area() <= 1e-12 || b.Area() <= 1e-12 {
		return nil
	}
	b = EnsureCCW(b)
	out := a
	for i := range b {
		p, q := b[i], b[(i+1)%len(b)]
		// Inside of edge p->q for a CCW polygon is the left side:
		// cross(q-p, x-p) >= 0  <=>  n·x <= c with n = perp(q-p) pointing right.
		e := q.Sub(p)
		n := Point{e.Y, -e.X} // right-pointing normal; inside is n·x <= n·p
		out = ClipConvex(out, HalfPlane{N: n, C: n.Dot(p)})
		if out == nil {
			return nil
		}
	}
	return out
}

// SignedArea returns the signed area (positive for counter-clockwise).
func (pg Polygon) SignedArea() float64 {
	if len(pg) == 0 {
		return 0
	}
	return pg.shoelace() / 2
}

// EnsureCCW returns pg with counter-clockwise orientation, reversing a copy
// if necessary.
func EnsureCCW(pg Polygon) Polygon {
	if pg.SignedArea() >= 0 {
		return pg
	}
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}
