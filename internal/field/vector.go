package field

import (
	"fmt"
	"math"

	"fielddb/internal/geom"
)

// VectorField is the paper's future-work extension (§5): a field whose
// value is a vector (e.g. wind: direction and magnitude), represented as k
// scalar component fields over one shared cell subdivision.
//
// Component-wise value queries compose with core.ConjunctiveQueryContext; for
// magnitude queries, which are not linear in the components, VectorField
// offers conservative per-cell magnitude bounds suitable for a
// filter-and-refine pipeline: the bounds never exclude a true answer, so an
// index over them (internal/magnitude) yields candidate cells that a
// refinement step (numeric evaluation inside the cell) can finish.
type VectorField struct {
	components []Field
}

// NewVectorField bundles component fields. All components must share the
// same subdivision (cell count and geometry).
func NewVectorField(components ...Field) (*VectorField, error) {
	if len(components) < 2 {
		return nil, fmt.Errorf("field: a vector field needs >= 2 components, got %d", len(components))
	}
	n := components[0].NumCells()
	b := components[0].Bounds()
	for i, c := range components[1:] {
		if c.NumCells() != n {
			return nil, fmt.Errorf("field: component %d has %d cells, want %d", i+1, c.NumCells(), n)
		}
		if c.Bounds() != b {
			return nil, fmt.Errorf("field: component %d bounds %v differ from %v", i+1, c.Bounds(), b)
		}
	}
	return &VectorField{components: components}, nil
}

// Dims returns the number of vector components.
func (v *VectorField) Dims() int { return len(v.components) }

// Component returns the i-th scalar component field.
func (v *VectorField) Component(i int) Field { return v.components[i] }

// NumCells returns the shared cell count.
func (v *VectorField) NumCells() int { return v.components[0].NumCells() }

// Bounds returns the shared spatial extent.
func (v *VectorField) Bounds() geom.Rect { return v.components[0].Bounds() }

// At evaluates every component at p.
func (v *VectorField) At(p geom.Point) ([]float64, bool) {
	out := make([]float64, len(v.components))
	for i, c := range v.components {
		w, ok := ValueAt(c, p)
		if !ok {
			return nil, false
		}
		out[i] = w
	}
	return out, true
}

// MagnitudeAt evaluates the Euclidean norm of the vector value at p.
func (v *VectorField) MagnitudeAt(p geom.Point) (float64, bool) {
	ws, ok := v.At(p)
	if !ok {
		return 0, false
	}
	sum := 0.0
	for _, w := range ws {
		sum += w * w
	}
	return math.Sqrt(sum), true
}

// MagnitudeBounds returns a conservative interval covering the vector
// magnitude everywhere inside cell id: per-component interval bounds are
// combined by interval arithmetic on Σ wᵢ². The interval may overestimate
// (the componentwise extremes need not be attained at one point) but never
// excludes a value actually attained — the invariant a filter step needs.
func (v *VectorField) MagnitudeBounds(id CellID) geom.Interval {
	var lo2, hi2 float64
	var c Cell
	for _, comp := range v.components {
		comp.Cell(id, &c)
		iv := c.Interval()
		// Bounds of w² over [iv.Lo, iv.Hi].
		l2 := iv.Lo * iv.Lo
		h2 := iv.Hi * iv.Hi
		mn, mx := math.Min(l2, h2), math.Max(l2, h2)
		if iv.Lo <= 0 && 0 <= iv.Hi {
			mn = 0
		}
		lo2 += mn
		hi2 += mx
	}
	return geom.Interval{Lo: math.Sqrt(lo2), Hi: math.Sqrt(hi2)}
}
