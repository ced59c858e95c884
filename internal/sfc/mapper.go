package sfc

import (
	"fmt"

	"fielddb/internal/geom"
)

// Mapper converts continuous 2-D points into Hilbert indices by snapping them
// onto a 2^order × 2^order grid over a fixed bounding rectangle. The subfield
// builder uses it to compute the Hilbert value of the center of every cell.
type Mapper struct {
	curve  *Hilbert
	bounds geom.Rect
	scaleX float64
	scaleY float64
	side   uint32
}

// NewMapper returns a Mapper that snaps points inside bounds onto the curve's
// grid.
func NewMapper(curve *Hilbert, bounds geom.Rect) (*Mapper, error) {
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("sfc: Mapper requires non-empty bounds")
	}
	side := uint32(1) << uint(curve.order)
	m := &Mapper{curve: curve, bounds: bounds, side: side}
	if w := bounds.Width(); w > 0 {
		m.scaleX = float64(side) / w
	}
	if h := bounds.Height(); h > 0 {
		m.scaleY = float64(side) / h
	}
	return m, nil
}

// Index returns the curve index of the grid square containing p. Points
// outside the bounds are clamped to the border.
func (m *Mapper) Index(p geom.Point) uint64 {
	gx := m.snap((p.X - m.bounds.Min.X) * m.scaleX)
	gy := m.snap((p.Y - m.bounds.Min.Y) * m.scaleY)
	return m.curve.Index(gx, gy)
}

func (m *Mapper) snap(v float64) uint32 {
	if v < 0 {
		return 0
	}
	g := uint32(v)
	if g >= m.side {
		return m.side - 1
	}
	return g
}

// Bounds returns the mapping rectangle.
func (m *Mapper) Bounds() geom.Rect { return m.bounds }
