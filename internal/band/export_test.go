package band

import "fielddb/internal/geom"

// Exported for kernel_test.go, whose tests run the kernel on the fixtures of
// internal/workload — an import this package's own tests cannot make, since
// workload imports field, which imports band.
var (
	RefTriangleBand = refTriangleBand
	SameVertices    = sameVertices
	SameBits        = sameBits
)

// TriangleCase is a bandCase with its fields exported.
type TriangleCase struct {
	P0, P1, P2 geom.Point
	W0, W1, W2 float64
	Lo, Hi     float64
}

// TriangleCases returns bandCases(seed, n) as TriangleCases.
func TriangleCases(seed int64, n int) []TriangleCase {
	var out []TriangleCase
	for _, c := range bandCases(seed, n) {
		out = append(out, TriangleCase{c.p0, c.p1, c.p2, c.w0, c.w1, c.w2, c.lo, c.hi})
	}
	return out
}
