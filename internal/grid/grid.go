// Package grid implements the regular-grid DEM field model of the paper's
// Figure 1: sample points are measured at the vertices of a rectangular
// grid and an interpolation function (piecewise linear here) defines the
// value at every interior point, turning a conventional raster DEM into a
// continuous field.
package grid

import (
	"fmt"
	"math"

	"fielddb/internal/field"
	"fielddb/internal/geom"
)

// DEM is a continuous field over a regular grid of rectangular cells.
// A DEM with nx × ny cells has (nx+1) × (ny+1) sample points at the grid
// vertices.
type DEM struct {
	origin   geom.Point
	dx, dy   float64
	nx, ny   int
	heights  []float64 // (nx+1) * (ny+1), row-major by vertex row
	valRange geom.Interval
}

// New builds a DEM with nx × ny cells starting at origin with cell size
// dx × dy, taking ownership of heights, which must hold (nx+1)*(ny+1)
// vertex samples in row-major order (index = row*(nx+1) + col).
func New(origin geom.Point, dx, dy float64, nx, ny int, heights []float64) (*DEM, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("grid: need at least 1x1 cells, got %dx%d", nx, ny)
	}
	if dx <= 0 || dy <= 0 {
		return nil, fmt.Errorf("grid: cell size must be positive, got %gx%g", dx, dy)
	}
	if want := (nx + 1) * (ny + 1); len(heights) != want {
		return nil, fmt.Errorf("grid: %d heights for %dx%d cells, want %d", len(heights), nx, ny, want)
	}
	vr := geom.EmptyInterval()
	for _, h := range heights {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return nil, fmt.Errorf("grid: non-finite height %g", h)
		}
		if h < vr.Lo {
			vr.Lo = h
		}
		if h > vr.Hi {
			vr.Hi = h
		}
	}
	return &DEM{origin: origin, dx: dx, dy: dy, nx: nx, ny: ny, heights: heights, valRange: vr}, nil
}

// FromFunc builds a DEM by sampling f at every grid vertex.
func FromFunc(origin geom.Point, dx, dy float64, nx, ny int, f func(x, y float64) float64) (*DEM, error) {
	heights := make([]float64, (nx+1)*(ny+1))
	for r := 0; r <= ny; r++ {
		for c := 0; c <= nx; c++ {
			heights[r*(nx+1)+c] = f(origin.X+float64(c)*dx, origin.Y+float64(r)*dy)
		}
	}
	return New(origin, dx, dy, nx, ny, heights)
}

// NumCells implements field.Field.
func (d *DEM) NumCells() int { return d.nx * d.ny }

// Size returns the cell grid dimensions (nx, ny).
func (d *DEM) Size() (nx, ny int) { return d.nx, d.ny }

// Grid returns the lattice of the cells: nx × ny rectangles of dx × dy from
// origin, cell (col, row) spanning [origin.X + col·dx, that + dx] ×
// [origin.Y + row·dy, that + dy] — the very sums Cell makes its vertices of.
func (d *DEM) Grid() (origin geom.Point, dx, dy float64, nx, ny int) {
	return d.origin, d.dx, d.dy, d.nx, d.ny
}

// VertexHeight returns the sample at vertex (col, row).
func (d *DEM) VertexHeight(col, row int) float64 {
	return d.heights[row*(d.nx+1)+col]
}

// Cell implements field.Field. Cell ids are row-major: id = row*nx + col.
// Vertices are counter-clockwise from the min corner, matching the quad
// convention of field.Band.
func (d *DEM) Cell(id field.CellID, dst *field.Cell) *field.Cell {
	col := int(id) % d.nx
	row := int(id) / d.nx
	x0 := d.origin.X + float64(col)*d.dx
	y0 := d.origin.Y + float64(row)*d.dy
	if cap(dst.Vertices) < 4 {
		dst.Vertices = make([]geom.Point, 4)
	}
	dst.Vertices = dst.Vertices[:4]
	if cap(dst.Values) < 4 {
		dst.Values = make([]float64, 4)
	}
	dst.Values = dst.Values[:4]
	dst.ID = id
	dst.Vertices[0] = geom.Pt(x0, y0)
	dst.Vertices[1] = geom.Pt(x0+d.dx, y0)
	dst.Vertices[2] = geom.Pt(x0+d.dx, y0+d.dy)
	dst.Vertices[3] = geom.Pt(x0, y0+d.dy)
	base := row*(d.nx+1) + col
	dst.Values[0] = d.heights[base]
	dst.Values[1] = d.heights[base+1]
	dst.Values[2] = d.heights[base+d.nx+2]
	dst.Values[3] = d.heights[base+d.nx+1]
	return dst
}

// Bounds implements field.Field.
func (d *DEM) Bounds() geom.Rect {
	return geom.Rect{
		Min: d.origin,
		Max: geom.Pt(d.origin.X+float64(d.nx)*d.dx, d.origin.Y+float64(d.ny)*d.dy),
	}
}

// ValueRange implements field.Field.
func (d *DEM) ValueRange() geom.Interval { return d.valRange }

// Locate implements field.Field in O(1) by direct grid arithmetic.
func (d *DEM) Locate(p geom.Point) (field.CellID, bool) {
	if !d.Bounds().ContainsPoint(p) {
		return 0, false
	}
	col := int((p.X - d.origin.X) / d.dx)
	row := int((p.Y - d.origin.Y) / d.dy)
	if col >= d.nx {
		col = d.nx - 1
	}
	if row >= d.ny {
		row = d.ny - 1
	}
	return field.CellID(row*d.nx + col), true
}

var _ field.Field = (*DEM)(nil)
