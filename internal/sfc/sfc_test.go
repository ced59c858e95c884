package sfc

import (
	"math/rand"
	"testing"

	"fielddb/internal/geom"
)

// transposeIndex is the n-dimensional transpose-form Hilbert index
// (J. Skilling, "Programming the Hilbert curve", AIP 2004 — an explicit form
// of Butz's 1969 construction) run at 2 dimensions: an independent reference
// for Index, which must key every point as it does.
func transposeIndex(order int, x, y uint32) uint64 {
	p := [2]uint32{x, y}
	m := uint32(1) << (order - 1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		r := q - 1
		for i := range p {
			if p[i]&q != 0 {
				p[0] ^= r // invert
			} else {
				t := (p[0] ^ p[i]) & r
				p[0] ^= t
				p[i] ^= t
			}
		}
	}
	// Reflected-binary encode.
	p[1] ^= p[0]
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if p[1]&q != 0 {
			t ^= q - 1
		}
	}
	p[0] ^= t
	p[1] ^= t
	// Bit b of p[i] is bit 2b + 1 − i of the index.
	return interleave(order, p[0], p[1])
}

// TestHilbertMatchesReference2D: Index keys every point of the lattices of
// orders 1–5 and 8, and 10^6 random points of order 16 — the order every
// build uses —, as the transpose form does.
func TestHilbertMatchesReference2D(t *testing.T) {
	check := func(h *Hilbert, order int, x, y uint32) {
		if got, want := h.Index(x, y), transposeIndex(order, x, y); got != want {
			t.Fatalf("order %d: Index(%d, %d) = %d, want %d", order, x, y, got, want)
		}
	}
	for _, order := range []int{1, 2, 3, 4, 5, 8} {
		h := mustHilbert(t, order)
		side := uint32(1) << order
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				check(h, order, x, y)
			}
		}
	}
	h := mustHilbert(t, 16)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1_000_000; i++ {
		check(h, 16, uint32(rng.Intn(1<<16)), uint32(rng.Intn(1<<16)))
	}
}

func mustHilbert(t testing.TB, order int) *Hilbert {
	t.Helper()
	h, err := NewHilbert(order, 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// inverse keys every point of the order's lattice and returns the points in
// key order, failing unless the keys are exactly 0 .. 4^order − 1.
func inverse(t *testing.T, order int) [][2]uint32 {
	h := mustHilbert(t, order)
	side := uint32(1) << order
	pts := make([][2]uint32, int(side)*int(side))
	seen := make([]bool, len(pts))
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			d := h.Index(x, y)
			if d >= uint64(len(pts)) || seen[d] {
				t.Fatalf("order %d: (%d, %d) keys %d, out of range or already taken", order, x, y, d)
			}
			seen[d] = true
			pts[d] = [2]uint32{x, y}
		}
	}
	return pts
}

func TestHilbertFigure4(t *testing.T) {
	// Figure 4 of the paper shows the order-2 Hilbert curve on a 4x4 grid:
	// the traversal starts at (0,0) and ends at (3,0), visiting 16 cells.
	h := mustHilbert(t, 2)
	if got := h.Index(0, 0); got != 0 {
		t.Errorf("start cell index = %d, want 0", got)
	}
	if got := h.Index(3, 0); got != 15 {
		t.Errorf("end cell index = %d, want 15", got)
	}
}

func TestCurvesAreBijections(t *testing.T) {
	for order := 1; order <= 6; order++ {
		inverse(t, order)
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property the paper relies on (§3.1.2): consecutive cells
	// along the Hilbert curve are spatially adjacent — "there is no jumps".
	for order := 1; order <= 6; order++ {
		pts := inverse(t, order)
		for d := 1; d < len(pts); d++ {
			prev, cur := pts[d-1], pts[d]
			manhattan := 0
			for i := range cur {
				diff := int(cur[i]) - int(prev[i])
				if diff < 0 {
					diff = -diff
				}
				manhattan += diff
			}
			if manhattan != 1 {
				t.Fatalf("order %d: step %d -> %d jumps by %d (from %v to %v)", order, d-1, d, manhattan, prev, cur)
			}
		}
	}
}

func TestParamValidation(t *testing.T) {
	cases := []struct{ order, dims int }{
		{0, 2}, {2, 0}, {33, 2}, {-1, 2}, {2, -1},
		{2, 1}, {2, 3}, {16, 3}, {32, 1}, // only 2-D curves
	}
	for _, c := range cases {
		if _, err := NewHilbert(c.order, c.dims); err == nil {
			t.Errorf("NewHilbert(%d,%d): expected error", c.order, c.dims)
		}
	}
	// The widest curve fills all 64 bits: it ends at (2^32 − 1, 0).
	if got := mustHilbert(t, 32).Index(1<<32-1, 0); got != 1<<64-1 {
		t.Errorf("order 32: end cell index = %d, want %d", got, uint64(1<<64-1))
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
	h := mustHilbert(t, order)
	curves := map[string]func(x, y uint32) uint64{
		"hilbert": h.Index,
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
	h := mustHilbert(t, 4)
	bounds := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 16, Y: 16}}
	m, err := NewMapper(h, bounds)
	if err != nil {
		t.Fatal(err)
	}
	// Unit spacing: point (x+0.5, y+0.5) lands on grid cell (x, y).
	for x := uint32(0); x < 16; x += 3 {
		for y := uint32(0); y < 16; y += 3 {
			got := m.Index(geom.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5})
			want := h.Index(x, y)
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
	if _, err := NewMapper(mustHilbert(t, 2), geom.EmptyRect()); err == nil {
		t.Error("empty bounds accepted by Mapper")
	}
}

func BenchmarkHilbertIndex2D(b *testing.B) {
	h := mustHilbert(b, 16)
	x, y := uint32(12345), uint32(54321)
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += h.Index(x, y)
	}
	_ = sink
}
