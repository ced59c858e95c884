package tin

import (
	"fmt"
	"math"

	"fielddb/internal/band"
	"fielddb/internal/field"
	"fielddb/internal/geom"
)

// TIN is a continuous field over a triangulated irregular network.
type TIN struct {
	points   []geom.Point
	values   []float64
	tris     []Triangle
	bounds   geom.Rect
	valRange geom.Interval

	// Uniform-grid triangle locator for O(1) expected point location.
	locSide  int
	locCells [][]int32

	// Vertex→triangle incidence, built lazily by IncidentCells.
	vertTris [][]int32
}

// New builds a TIN from points, their sample values, and a triangulation.
func New(points []geom.Point, values []float64, tris []Triangle) (*TIN, error) {
	if len(points) != len(values) {
		return nil, fmt.Errorf("tin: %d points but %d values", len(points), len(values))
	}
	if len(tris) == 0 {
		return nil, fmt.Errorf("tin: no triangles")
	}
	vr := geom.EmptyInterval()
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("tin: non-finite value %g", v)
		}
		if v < vr.Lo {
			vr.Lo = v
		}
		if v > vr.Hi {
			vr.Hi = v
		}
	}
	for ti, tr := range tris {
		for _, v := range tr {
			if v < 0 || int(v) >= len(points) {
				return nil, fmt.Errorf("tin: triangle %d references vertex %d of %d", ti, v, len(points))
			}
		}
	}
	t := &TIN{
		points:   points,
		values:   values,
		tris:     tris,
		bounds:   geom.RectFromPoints(points...),
		valRange: vr,
	}
	t.buildLocator()
	return t, nil
}

// FromPoints triangulates the points with Delaunay and builds the TIN.
func FromPoints(points []geom.Point, values []float64) (*TIN, error) {
	tris, err := Delaunay(points)
	if err != nil {
		return nil, err
	}
	return New(points, values, tris)
}

// buildLocator assigns each triangle to every locator bucket its bounding
// box overlaps.
func (t *TIN) buildLocator() {
	side := int(math.Sqrt(float64(len(t.tris))))
	if side < 1 {
		side = 1
	}
	if side > 512 {
		side = 512
	}
	t.locSide = side
	t.locCells = make([][]int32, side*side)
	w, h := t.bounds.Width(), t.bounds.Height()
	if w == 0 || h == 0 {
		for i := range t.locCells {
			for ti := range t.tris {
				t.locCells[i] = append(t.locCells[i], int32(ti))
			}
		}
		return
	}
	for ti, tr := range t.tris {
		b := geom.RectFromPoints(t.points[tr[0]], t.points[tr[1]], t.points[tr[2]])
		c0 := t.clampBucket(int(float64(side) * (b.Min.X - t.bounds.Min.X) / w))
		c1 := t.clampBucket(int(float64(side) * (b.Max.X - t.bounds.Min.X) / w))
		r0 := t.clampBucket(int(float64(side) * (b.Min.Y - t.bounds.Min.Y) / h))
		r1 := t.clampBucket(int(float64(side) * (b.Max.Y - t.bounds.Min.Y) / h))
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				t.locCells[r*side+c] = append(t.locCells[r*side+c], int32(ti))
			}
		}
	}
}

func (t *TIN) clampBucket(i int) int {
	if i < 0 {
		return 0
	}
	if i >= t.locSide {
		return t.locSide - 1
	}
	return i
}

// NumCells implements field.Field.
func (t *TIN) NumCells() int { return len(t.tris) }

// Cell implements field.Field.
func (t *TIN) Cell(id field.CellID, dst *field.Cell) *field.Cell {
	tr := t.tris[id]
	if cap(dst.Vertices) < 3 {
		dst.Vertices = make([]geom.Point, 3)
	}
	dst.Vertices = dst.Vertices[:3]
	if cap(dst.Values) < 3 {
		dst.Values = make([]float64, 3)
	}
	dst.Values = dst.Values[:3]
	dst.ID = id
	for i, v := range tr {
		dst.Vertices[i] = t.points[v]
		dst.Values[i] = t.values[v]
	}
	return dst
}

// Bounds implements field.Field.
func (t *TIN) Bounds() geom.Rect { return t.bounds }

// ValueRange implements field.Field.
func (t *TIN) ValueRange() geom.Interval { return t.valRange }

// Locate implements field.Field via the uniform-grid locator.
func (t *TIN) Locate(p geom.Point) (field.CellID, bool) {
	if !t.bounds.ContainsPoint(p) {
		return 0, false
	}
	w, h := t.bounds.Width(), t.bounds.Height()
	col, row := 0, 0
	if w > 0 {
		col = t.clampBucket(int(float64(t.locSide) * (p.X - t.bounds.Min.X) / w))
	}
	if h > 0 {
		row = t.clampBucket(int(float64(t.locSide) * (p.Y - t.bounds.Min.Y) / h))
	}
	for _, ti := range t.locCells[row*t.locSide+col] {
		tr := t.tris[ti]
		if _, ok := band.TriangleValue(
			t.points[tr[0]], t.points[tr[1]], t.points[tr[2]],
			t.values[tr[0]], t.values[tr[1]], t.values[tr[2]], p); ok {
			return field.CellID(ti), true
		}
	}
	return 0, false
}

var _ field.Field = (*TIN)(nil)
