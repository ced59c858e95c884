// Package sfc implements the space-filling curves used to linearize field
// cells: the Hilbert curve (2-D fast path and an n-dimensional generalization
// via the Butz/transpose algorithm), the Z-order (Peano/bit-interleaving)
// curve, and the Gray-code curve.
//
// The paper linearizes cells by the Hilbert value of their centers and cites
// Faloutsos & Roseman (PODS'89) and Jagadish (SIGMOD'90) for the experimental
// result that Hilbert achieves the best clustering among the three curves;
// the other two are provided for the clustering ablation.
package sfc

import "fmt"

// Curve maps between k-dimensional grid coordinates and a 1-D index.
// Implementations must be bijections over the full grid of the given order:
// every coordinate in [0, 2^order) per axis maps to a distinct index in
// [0, 2^(order*dims)).
type Curve interface {
	// Index returns the 1-D position of the grid point.
	Index(coords []uint32) uint64
	// Coords returns the grid point at the 1-D position d, writing into
	// the provided slice (which must have length Dims).
	Coords(d uint64, coords []uint32)
	// Order returns the number of bits per axis.
	Order() int
	// Dims returns the dimensionality.
	Dims() int
	// Name returns a short identifier ("hilbert", "zorder", "gray").
	Name() string
}

// New returns a curve by name. Supported names: "hilbert", "zorder", "gray".
func New(name string, order, dims int) (Curve, error) {
	switch name {
	case "hilbert":
		return NewHilbert(order, dims)
	case "zorder":
		return NewZOrder(order, dims)
	case "gray":
		return NewGray(order, dims)
	default:
		return nil, fmt.Errorf("sfc: unknown curve %q", name)
	}
}

func checkParams(order, dims int) error {
	if dims < 1 {
		return fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if order < 1 {
		return fmt.Errorf("sfc: order must be >= 1, got %d", order)
	}
	if order*dims > 64 {
		return fmt.Errorf("sfc: order*dims = %d exceeds 64 bits", order*dims)
	}
	if order > 32 {
		return fmt.Errorf("sfc: order must be <= 32, got %d", order)
	}
	return nil
}

// Hilbert is an n-dimensional Hilbert curve.
type Hilbert struct {
	order, dims int
}

// NewHilbert returns a Hilbert curve with the given bits-per-axis order and
// dimensionality. order*dims must not exceed 64.
func NewHilbert(order, dims int) (*Hilbert, error) {
	if err := checkParams(order, dims); err != nil {
		return nil, err
	}
	return &Hilbert{order: order, dims: dims}, nil
}

// Order implements Curve.
func (h *Hilbert) Order() int { return h.order }

// Dims implements Curve.
func (h *Hilbert) Dims() int { return h.dims }

// Name implements Curve.
func (h *Hilbert) Name() string { return "hilbert" }

// Index implements Curve using the transpose-form algorithm
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

// Coords implements Curve.
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
	// Gray encode.
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
	// Gray decode by H ^ (H/2).
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

// ZOrder is the Z-order (Peano / bit-interleaving) curve.
type ZOrder struct {
	order, dims int
}

// NewZOrder returns a Z-order curve.
func NewZOrder(order, dims int) (*ZOrder, error) {
	if err := checkParams(order, dims); err != nil {
		return nil, err
	}
	return &ZOrder{order: order, dims: dims}, nil
}

// Order implements Curve.
func (z *ZOrder) Order() int { return z.order }

// Dims implements Curve.
func (z *ZOrder) Dims() int { return z.dims }

// Name implements Curve.
func (z *ZOrder) Name() string { return "zorder" }

// Index implements Curve by interleaving the coordinate bits.
func (z *ZOrder) Index(coords []uint32) uint64 {
	if len(coords) != z.dims {
		panic(fmt.Sprintf("sfc: ZOrder.Index: got %d coords, want %d", len(coords), z.dims))
	}
	var d uint64
	for b := z.order - 1; b >= 0; b-- {
		for i := 0; i < z.dims; i++ {
			d = (d << 1) | uint64((coords[i]>>uint(b))&1)
		}
	}
	return d
}

// Coords implements Curve.
func (z *ZOrder) Coords(d uint64, coords []uint32) {
	if len(coords) != z.dims {
		panic(fmt.Sprintf("sfc: ZOrder.Coords: got %d coords, want %d", len(coords), z.dims))
	}
	deinterleaveTransposed(d, coords, z.order)
}

// Gray is the Gray-code curve (Faloutsos, TSE'89): the interleaved index is
// run through a binary-reflected Gray decode, which flips between adjacent
// quadrant orderings and improves clustering slightly over raw Z-order.
type Gray struct {
	order, dims int
}

// NewGray returns a Gray-code curve.
func NewGray(order, dims int) (*Gray, error) {
	if err := checkParams(order, dims); err != nil {
		return nil, err
	}
	return &Gray{order: order, dims: dims}, nil
}

// Order implements Curve.
func (g *Gray) Order() int { return g.order }

// Dims implements Curve.
func (g *Gray) Dims() int { return g.dims }

// Name implements Curve.
func (g *Gray) Name() string { return "gray" }

// Index implements Curve: the position along the curve is the Gray-code rank
// (inverse Gray code) of the bit-interleaved coordinates.
func (g *Gray) Index(coords []uint32) uint64 {
	if len(coords) != g.dims {
		panic(fmt.Sprintf("sfc: Gray.Index: got %d coords, want %d", len(coords), g.dims))
	}
	var v uint64
	for b := g.order - 1; b >= 0; b-- {
		for i := 0; i < g.dims; i++ {
			v = (v << 1) | uint64((coords[i]>>uint(b))&1)
		}
	}
	return grayRank(v)
}

// Coords implements Curve.
func (g *Gray) Coords(d uint64, coords []uint32) {
	if len(coords) != g.dims {
		panic(fmt.Sprintf("sfc: Gray.Coords: got %d coords, want %d", len(coords), g.dims))
	}
	v := grayEncode(d)
	deinterleaveTransposed(v, coords, g.order)
}

// grayEncode returns the binary-reflected Gray code of n.
func grayEncode(n uint64) uint64 { return n ^ (n >> 1) }

// grayRank inverts grayEncode: it returns the position of the codeword g in
// the reflected Gray sequence.
func grayRank(g uint64) uint64 {
	n := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		n ^= n >> shift
	}
	return n
}
