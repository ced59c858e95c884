// Package sfc implements the 2-D Hilbert curve that linearizes field cells:
// every build keys a cell by the Hilbert value of its centre (§3.1.2,
// Figure 4).
//
// The paper cites Faloutsos & Roseman (PODS'89) and Jagadish (SIGMOD'90) for
// the experimental result that Hilbert achieves the best clustering of the
// space-filling curves they compare.
package sfc

import "fmt"

// Hilbert is the 2-D Hilbert curve over a 2^order × 2^order grid. Its
// traversal starts at (0, 0) and ends at (2^order − 1, 0), as in Figure 4.
type Hilbert struct {
	order int
}

// NewHilbert returns a Hilbert curve with the given bits-per-axis order and
// dimensionality. Only 2 dimensions are supported, and order must lie in
// [1, 32] so that a key fits 64 bits.
func NewHilbert(order, dims int) (*Hilbert, error) {
	switch {
	case dims != 2:
		return nil, fmt.Errorf("sfc: only 2-D curves are supported, got %d dims", dims)
	case order < 1:
		return nil, fmt.Errorf("sfc: order must be >= 1, got %d", order)
	case order > 32:
		return nil, fmt.Errorf("sfc: order must be <= 32, got %d", order)
	}
	return &Hilbert{order: order}, nil
}

// Index returns the position along the curve of grid point (x, y), each
// coordinate in [0, 2^order). It is the classic rotate-and-add conversion:
// from the top bit down, add the quadrant's offset along the curve, then
// rotate the point into that quadrant's frame.
func (h *Hilbert) Index(x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (h.order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant. Only the bits below s matter from here on,
		// so s-1-x reflects them even where x still carries higher bits.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
