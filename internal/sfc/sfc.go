// Package sfc implements the Hilbert curve used to linearize field cells: one
// n-dimensional Butz/transpose algorithm, which the 2-D cells of a field and
// the 3-D cells of a volume both run.
//
// The paper linearizes cells by the Hilbert value of their centers and cites
// Faloutsos & Roseman (PODS'89) and Jagadish (SIGMOD'90) for the experimental
// result that Hilbert achieves the best clustering of the space-filling curves
// they compare.
package sfc

import "fmt"

// Hilbert is an n-dimensional Hilbert curve.
type Hilbert struct {
	order, dims int
}

// NewHilbert returns a Hilbert curve with the given bits-per-axis order and
// dimensionality. order*dims must not exceed 64.
func NewHilbert(order, dims int) (*Hilbert, error) {
	switch {
	case dims < 1:
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	case order < 1:
		return nil, fmt.Errorf("sfc: order must be >= 1, got %d", order)
	case order*dims > 64:
		return nil, fmt.Errorf("sfc: order*dims = %d exceeds 64 bits", order*dims)
	case order > 32:
		return nil, fmt.Errorf("sfc: order must be <= 32, got %d", order)
	}
	return &Hilbert{order: order, dims: dims}, nil
}

// Index returns the 1-D position of the grid point coords, one coordinate in
// [0, 2^order) per axis, using the transpose-form algorithm
// (J. Skilling, "Programming the Hilbert curve", AIP 2004 — an explicit form
// of Butz's 1969 construction, the reference the paper cites for higher
// dimensionalities).
func (h *Hilbert) Index(coords []uint32) uint64 {
	if len(coords) != h.dims {
		panic(fmt.Sprintf("sfc: Hilbert.Index: got %d coords, want %d", len(coords), h.dims))
	}
	var buf [8]uint32 // the transform's scratch, on the stack up to 8 dims
	x := buf[:0]
	if h.dims > len(buf) {
		x = make([]uint32, 0, h.dims)
	}
	x = append(x, coords...)
	axesToTranspose(x, h.order)
	return interleaveTransposed(x, h.order)
}

// Coords is the inverse of Index: it writes the grid point at position d into
// coords, which must have one entry per axis.
func (h *Hilbert) Coords(d uint64, coords []uint32) {
	if len(coords) != h.dims {
		panic(fmt.Sprintf("sfc: Hilbert.Coords: got %d coords, want %d", len(coords), h.dims))
	}
	deinterleaveTransposed(d, coords, h.order)
	transposeToAxes(coords, h.order)
}

// axesToTranspose converts coordinates into the "transposed" Hilbert index
// in place: after the call, bit b of x[i] is bit (b*dims + i) of the index.
func axesToTranspose(x []uint32, order int) {
	n := len(x)
	m := uint32(1) << (order - 1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Reflected-binary encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x []uint32, order int) {
	n := len(x)
	m := uint32(2) << (order - 1)
	// Reflected-binary decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTransposed packs the transposed representation into a single
// uint64: bit (b*dims + i) of the result is bit b of x[i], with axis 0
// carrying the most significant bit of each group.
func interleaveTransposed(x []uint32, order int) uint64 {
	n := len(x)
	var d uint64
	for b := order - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			d = (d << 1) | uint64((x[i]>>uint(b))&1)
		}
	}
	return d
}

// deinterleaveTransposed is the inverse of interleaveTransposed.
func deinterleaveTransposed(d uint64, x []uint32, order int) {
	n := len(x)
	for i := range x {
		x[i] = 0
	}
	shift := uint(order*n - 1)
	for b := order - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			bit := uint32((d >> shift) & 1)
			x[i] |= bit << uint(b)
			shift--
		}
	}
}
