// Package field defines the continuous-field abstraction of the paper's §2.1:
// a field is a pair (C, F) — a subdivision of the spatial domain into cells
// carrying sample points, and interpolation functions deriving the implicit
// value at every non-sampled position.
//
// Concrete models (the regular-grid DEM in internal/grid, the TIN in
// internal/tin) implement the Field interface; the value-query indexes in
// internal/core operate only on this interface plus the serialized cell
// records in the heap file.
package field

import (
	"fmt"
	"math"

	"fielddb/internal/band"
	"fielddb/internal/geom"
)

// CellID identifies a cell within one field, numbered 0..NumCells-1.
type CellID uint32

// Cell is one element of the subdivision: its sample points (vertices) and
// the measured values at them. Cells with 3 vertices are triangles
// (TIN cells); cells with 4 vertices are axis-aligned DEM quads with
// vertices in counter-clockwise order starting at the min corner.
type Cell struct {
	ID       CellID
	Vertices []geom.Point
	Values   []float64
}

// Interval returns the 1-D MBR of every value inside the cell. Linear
// interpolation attains its extremes at the sample points, so this is the
// min/max over the vertex values (the paper's note about interpolants that
// introduce interior extrema is handled by the Interpolator interface).
func (c *Cell) Interval() geom.Interval {
	iv := geom.EmptyInterval()
	for _, w := range c.Values {
		if w < iv.Lo {
			iv.Lo = w
		}
		if w > iv.Hi {
			iv.Hi = w
		}
	}
	return iv
}

// Bounds returns the spatial bounding rectangle of the cell:
// geom.RectFromPoints of its vertices. A DEM quad — min corner first, then
// counter-clockwise, each coordinate repeated bit for bit by the neighbour
// that shares it, min strictly below max — is bounded by its first and third
// vertices, and the fold over min and max would return exactly those (no
// NaN passes the < tests, and no ±0 pair either); any other cell takes the
// fold.
func (c *Cell) Bounds() geom.Rect {
	if v := c.Vertices; len(v) == 4 && v[0].X < v[2].X && v[0].Y < v[2].Y &&
		same(v[1].X, v[2].X) && same(v[3].X, v[0].X) && same(v[1].Y, v[0].Y) && same(v[3].Y, v[2].Y) {
		return geom.Rect{Min: v[0], Max: v[2]}
	}
	return geom.RectFromPoints(c.Vertices...)
}

// same reports whether a and b have the same bits.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Center returns the centroid of the cell's vertices — the position whose
// Hilbert value orders the cell (§3.1.2).
func (c *Cell) Center() geom.Point {
	var sx, sy float64
	for _, p := range c.Vertices {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(c.Vertices))
	return geom.Pt(sx/n, sy/n)
}

// Area returns the planar area of the cell polygon (shoelace formula over
// the vertex ring). The aggregate tier weighs cells by it, both when fitting
// area summaries and when an exact fallback accumulates matched area.
func (c *Cell) Area() float64 { return geom.Polygon(c.Vertices).Area() }

// Validate reports structural problems with the cell.
func (c *Cell) Validate() error {
	if len(c.Vertices) != len(c.Values) {
		return fmt.Errorf("field: cell %d has %d vertices but %d values", c.ID, len(c.Vertices), len(c.Values))
	}
	if len(c.Vertices) != 3 && len(c.Vertices) != 4 {
		return fmt.Errorf("field: cell %d has unsupported vertex count %d", c.ID, len(c.Vertices))
	}
	for i, w := range c.Values {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("field: cell %d value %d is %g", c.ID, i, w)
		}
	}
	return nil
}

// Field is a continuous scalar field (C, F).
type Field interface {
	// NumCells returns the number of cells in the subdivision.
	NumCells() int
	// Cell materializes the cell with the given id into dst (reusing its
	// slices when possible) and returns it.
	Cell(id CellID, dst *Cell) *Cell
	// Bounds returns the spatial extent of the field.
	Bounds() geom.Rect
	// ValueRange returns the interval covering every sample value.
	ValueRange() geom.Interval
	// Locate returns the id of a cell containing p, if any.
	Locate(p geom.Point) (CellID, bool)
}

// Mutable is a Field whose sample values can change after construction —
// the live-field contract behind incremental index maintenance. Samples are
// addressed by the model's own index: row-major vertex index for the DEM,
// point index for the TIN. Geometry (vertex positions, the subdivision) is
// immutable; only the measured values move, which is what keeps every cell's
// encoded record the same length under updates.
type Mutable interface {
	Field
	// NumSamples returns the number of sample points.
	NumSamples() int
	// SampleValue returns the current value at sample i.
	SampleValue(i int) float64
	// SetSample overwrites the value at sample i, keeping ValueRange exact.
	SetSample(i int, v float64) error
	// IncidentCells appends to dst the ids of every cell that has sample i
	// as a vertex — the cells whose intervals an update to i can move.
	IncidentCells(i int, dst []CellID) []CellID
}

// ValueAt evaluates the field at p by locating the containing cell and
// applying linear interpolation on its sample points — the conventional
// query F(v') of §2.2.1.
func ValueAt(f Field, p geom.Point) (float64, bool) {
	id, ok := f.Locate(p)
	if !ok {
		return 0, false
	}
	var c Cell
	f.Cell(id, &c)
	return Interpolate(&c, p)
}

// Interpolate evaluates the cell's linear interpolant at p.
func Interpolate(c *Cell, p geom.Point) (float64, bool) {
	switch len(c.Vertices) {
	case 3:
		return band.TriangleValue(c.Vertices[0], c.Vertices[1], c.Vertices[2],
			c.Values[0], c.Values[1], c.Values[2], p)
	case 4:
		return band.QuadValue(c.Bounds(), c.Values[0], c.Values[1], c.Values[2], c.Values[3], p)
	default:
		return 0, false
	}
}

// AppendBand appends to dst the exact answer regions of the cell for the
// value band [lo, hi] — the set of points where the interpolated value falls
// inside: at most two convex polygons, back to back. first is the vertex
// count of the first region and the second is whatever follows it, as for
// band.AppendQuadBand. Nothing is allocated while dst has room for
// band.MaxCellVertices more points.
func AppendBand(dst []geom.Point, c *Cell, lo, hi float64) (out []geom.Point, first int) {
	switch len(c.Vertices) {
	case 3:
		out = band.AppendTriangleBand(dst, c.Vertices[0], c.Vertices[1], c.Vertices[2],
			c.Values[0], c.Values[1], c.Values[2], lo, hi)
		return out, len(out) - len(dst)
	case 4:
		return band.AppendQuadBand(dst, c.Bounds(), c.Values[0], c.Values[1], c.Values[2], c.Values[3], lo, hi)
	default:
		return dst, 0
	}
}

// Band returns the answer regions of AppendBand as polygons of their own.
func Band(c *Cell, lo, hi float64) []geom.Polygon {
	var buf [band.MaxCellVertices]geom.Point
	return band.Polygons(AppendBand(buf[:0], c, lo, hi))
}

// Isolines returns the segments inside the cell where the interpolated value
// equals w — the answer geometry of an exact value query (Qinterval = 0),
// whose answer region has measure zero.
func Isolines(c *Cell, w float64) [][2]geom.Point {
	segFrom := func(pts []geom.Point) ([2]geom.Point, bool) {
		if len(pts) != 2 {
			return [2]geom.Point{}, false
		}
		return [2]geom.Point{pts[0], pts[1]}, true
	}
	switch len(c.Vertices) {
	case 3:
		if s, ok := segFrom(band.Isoline(c.Vertices[0], c.Vertices[1], c.Vertices[2],
			c.Values[0], c.Values[1], c.Values[2], w)); ok {
			return [][2]geom.Point{s}
		}
		return nil
	case 4:
		r := c.Bounds()
		p0 := r.Min
		p1 := geom.Pt(r.Max.X, r.Min.Y)
		p2 := r.Max
		p3 := geom.Pt(r.Min.X, r.Max.Y)
		var out [][2]geom.Point
		if s, ok := segFrom(band.Isoline(p0, p1, p2, c.Values[0], c.Values[1], c.Values[2], w)); ok {
			out = append(out, s)
		}
		if s, ok := segFrom(band.Isoline(p0, p2, p3, c.Values[0], c.Values[2], c.Values[3], w)); ok {
			out = append(out, s)
		}
		return out
	default:
		return nil
	}
}

// ValueRangeOf computes the value range of any Field by scanning its cells;
// models with a cheaper way to answer should implement ValueRange directly.
func ValueRangeOf(f Field) geom.Interval {
	iv := geom.EmptyInterval()
	var c Cell
	for id := 0; id < f.NumCells(); id++ {
		f.Cell(CellID(id), &c)
		iv = iv.Union(c.Interval())
	}
	return iv
}
