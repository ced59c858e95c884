package sfc

import (
	"math/rand"
	"testing"

	"fielddb/internal/geom"
)

// hilbert2dRef is the classic iterative 2-D Hilbert xy->d conversion
// (Griffiths'86 style), used as an independent reference implementation to
// cross-check the n-dimensional transpose algorithm.
func hilbert2dRef(order int, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
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

func TestHilbertMatchesReference2D(t *testing.T) {
	for _, order := range []int{1, 2, 3, 5, 8} {
		h, err := NewHilbert(order, 2)
		if err != nil {
			t.Fatal(err)
		}
		side := uint32(1) << uint(order)
		step := side / 16
		if step == 0 {
			step = 1
		}
		for x := uint32(0); x < side; x += step {
			for y := uint32(0); y < side; y += step {
				got := h.Index([]uint32{x, y})
				want := hilbert2dRef(order, x, y)
				if got != want {
					t.Fatalf("order %d: Index(%d,%d) = %d, want %d", order, x, y, got, want)
				}
			}
		}
	}
}

func TestHilbertFigure4(t *testing.T) {
	// Figure 4 of the paper shows the order-2 Hilbert curve on a 4x4 grid:
	// the traversal starts at (0,0) and ends at (3,0), visiting 16 cells.
	h, _ := NewHilbert(2, 2)
	if got := h.Index([]uint32{0, 0}); got != 0 {
		t.Errorf("start cell index = %d, want 0", got)
	}
	if got := h.Index([]uint32{3, 0}); got != 15 {
		t.Errorf("end cell index = %d, want 15", got)
	}
}

func TestCurvesAreBijections(t *testing.T) {
	for _, tc := range []struct{ order, dims int }{
		{3, 2}, {2, 3}, {4, 2}, {2, 4}, {1, 12}, // 12 dims: past Hilbert.Index's stack array
	} {
		h, err := NewHilbert(tc.order, tc.dims)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(1) << uint(tc.order*tc.dims)
		seen := make(map[uint64]bool, total)
		coords := make([]uint32, tc.dims)
		// Enumerate every d, map to coords, back to d.
		for d := uint64(0); d < total; d++ {
			h.Coords(d, coords)
			for _, x := range coords {
				if x >= 1<<uint(tc.order) {
					t.Fatalf("%d/%d: coord %d out of range at d=%d", tc.order, tc.dims, x, d)
				}
			}
			back := h.Index(coords)
			if back != d {
				t.Fatalf("order=%d dims=%d: roundtrip %d -> %v -> %d", tc.order, tc.dims, d, coords, back)
			}
			if seen[back] {
				t.Fatalf("duplicate index %d", back)
			}
			seen[back] = true
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property the paper relies on (§3.1.2): consecutive cells
	// along the Hilbert curve are spatially adjacent — "there is no jumps".
	for _, dims := range []int{2, 3} {
		order := 4
		h, _ := NewHilbert(order, dims)
		total := uint64(1) << uint(order*dims)
		prev := make([]uint32, dims)
		cur := make([]uint32, dims)
		h.Coords(0, prev)
		for d := uint64(1); d < total; d++ {
			h.Coords(d, cur)
			manhattan := 0
			for i := range cur {
				diff := int(cur[i]) - int(prev[i])
				if diff < 0 {
					diff = -diff
				}
				manhattan += diff
			}
			if manhattan != 1 {
				t.Fatalf("dims=%d: step %d -> %d jumps by %d (from %v to %v)", dims, d-1, d, manhattan, prev, cur)
			}
			copy(prev, cur)
		}
	}
}

func TestParamValidation(t *testing.T) {
	cases := []struct{ order, dims int }{
		{0, 2}, {2, 0}, {33, 2}, {32, 3}, {-1, 2}, {2, -1},
	}
	for _, c := range cases {
		if _, err := NewHilbert(c.order, c.dims); err == nil {
			t.Errorf("NewHilbert(%d,%d): expected error", c.order, c.dims)
		}
	}
}

func TestHilbertClusteringBeatsZOrder(t *testing.T) {
	// Reproduces the claim of refs [7,13]: for random small range queries,
	// the Hilbert curve splits the qualifying cells into fewer runs of
	// consecutive curve positions (clusters) than Z-order (bit interleave)
	// or its reflected-binary rank.
	order := 6
	side := 1 << order
	rng := rand.New(rand.NewSource(42))
	h, _ := NewHilbert(order, 2)
	curves := map[string]func(x, y uint32) uint64{
		"hilbert": func(x, y uint32) uint64 { return h.Index([]uint32{x, y}) },
		"zorder":  func(x, y uint32) uint64 { return interleave(order, x, y) },
		"gray":    func(x, y uint32) uint64 { return reflectedRank(interleave(order, x, y)) },
	}
	clusters := map[string]int{}
	for q := 0; q < 200; q++ {
		// Random 8x8 query window.
		qx := rng.Intn(side - 8)
		qy := rng.Intn(side - 8)
		for name, key := range curves {
			var ids []uint64
			for x := qx; x < qx+8; x++ {
				for y := qy; y < qy+8; y++ {
					ids = append(ids, key(uint32(x), uint32(y)))
				}
			}
			clusters[name] += countRuns(ids)
		}
	}
	if clusters["hilbert"] >= clusters["zorder"] {
		t.Errorf("hilbert clusters (%d) not better than zorder (%d)", clusters["hilbert"], clusters["zorder"])
	}
	if clusters["hilbert"] >= clusters["gray"] {
		t.Errorf("hilbert clusters (%d) not better than gray (%d)", clusters["hilbert"], clusters["gray"])
	}
}

// interleave is the Z-order key of (x, y): their bits interleaved, x's the
// more significant of each pair.
func interleave(order int, x, y uint32) uint64 {
	var d uint64
	for b := order - 1; b >= 0; b-- {
		d = d<<2 | uint64(x>>uint(b)&1)<<1 | uint64(y>>uint(b)&1)
	}
	return d
}

// reflectedRank is the position of the codeword g in the binary-reflected
// code sequence: applied to an interleaved point, the key of the
// reflected-binary curve the paper's refs compare.
func reflectedRank(g uint64) uint64 {
	for shift := uint(1); shift < 64; shift <<= 1 {
		g ^= g >> shift
	}
	return g
}

// countRuns returns the number of maximal runs of consecutive integers in ids.
func countRuns(ids []uint64) int {
	if len(ids) == 0 {
		return 0
	}
	sorted := make([]uint64, len(ids))
	copy(sorted, ids)
	for i := 1; i < len(sorted); i++ { // insertion sort; inputs are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	runs := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			runs++
		}
	}
	return runs
}

func TestMapper(t *testing.T) {
	h, _ := NewHilbert(4, 2)
	bounds := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 16, Y: 16}}
	m, err := NewMapper(h, bounds)
	if err != nil {
		t.Fatal(err)
	}
	// Unit spacing: point (x+0.5, y+0.5) lands on grid cell (x, y).
	for x := uint32(0); x < 16; x += 3 {
		for y := uint32(0); y < 16; y += 3 {
			got := m.Index(geom.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5})
			want := h.Index([]uint32{x, y})
			if got != want {
				t.Fatalf("Mapper.Index(%d.5,%d.5) = %d, want %d", x, y, got, want)
			}
		}
	}
	// Out-of-bounds points clamp instead of panicking.
	_ = m.Index(geom.Point{X: -5, Y: 100})
	if m.Bounds() != bounds {
		t.Error("Bounds broken")
	}
}

func TestMapperErrors(t *testing.T) {
	h3, _ := NewHilbert(2, 3)
	if _, err := NewMapper(h3, geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}}); err == nil {
		t.Error("3-D curve accepted by Mapper")
	}
	h2, _ := NewHilbert(2, 2)
	if _, err := NewMapper(h2, geom.EmptyRect()); err == nil {
		t.Error("empty bounds accepted by Mapper")
	}
}

func TestIndexPanicsOnWrongArity(t *testing.T) {
	h, _ := NewHilbert(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong coord arity")
		}
	}()
	h.Index([]uint32{1})
}

func BenchmarkHilbertIndex2D(b *testing.B) {
	h, _ := NewHilbert(16, 2)
	coords := []uint32{12345, 54321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Index(coords)
	}
}
