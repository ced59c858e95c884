package contour

import (
	"context"
	"math"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/fractal"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

func TestAssembleChain(t *testing.T) {
	segs := [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0)},
		{geom.Pt(2, 0), geom.Pt(1, 0)}, // reversed orientation
		{geom.Pt(2, 0), geom.Pt(3, 1)},
	}
	lines := Assemble(segs, 1e-9)
	if len(lines) != 1 {
		t.Fatalf("got %d polylines, want 1", len(lines))
	}
	if len(lines[0]) != 4 {
		t.Fatalf("chain has %d points: %v", len(lines[0]), lines[0])
	}
	if lines[0].Closed() {
		t.Fatal("open chain reported closed")
	}
	want := 1.0 + 1.0 + math.Sqrt(2)
	if math.Abs(lines[0].Length()-want) > 1e-9 {
		t.Fatalf("length = %g, want %g", lines[0].Length(), want)
	}
}

func TestAssembleRing(t *testing.T) {
	segs := [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0)},
		{geom.Pt(1, 0), geom.Pt(1, 1)},
		{geom.Pt(1, 1), geom.Pt(0, 1)},
		{geom.Pt(0, 1), geom.Pt(0, 0)},
	}
	lines := Assemble(segs, 1e-9)
	if len(lines) != 1 {
		t.Fatalf("got %d polylines", len(lines))
	}
	if !lines[0].Closed() {
		t.Fatalf("square ring not closed: %v", lines[0])
	}
	if math.Abs(lines[0].Length()-4) > 1e-9 {
		t.Fatalf("ring length = %g", lines[0].Length())
	}
}

func TestAssembleMultipleComponentsAndNoise(t *testing.T) {
	segs := [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0)},
		{geom.Pt(5, 5), geom.Pt(6, 5)},
		{geom.Pt(6, 5), geom.Pt(7, 5)},
		{geom.Pt(3, 3), geom.Pt(3, 3)}, // zero-length: dropped
	}
	lines := Assemble(segs, 1e-9)
	if len(lines) != 2 {
		t.Fatalf("got %d polylines, want 2", len(lines))
	}
	total := 0
	for _, l := range lines {
		total += len(l) - 1
	}
	if total != 3 {
		t.Fatalf("segments used = %d, want 3", total)
	}
}

func TestAssembleToleranceJoins(t *testing.T) {
	segs := [][2]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0)},
		{geom.Pt(1.0000001, 0), geom.Pt(2, 0)}, // off by 1e-7
	}
	if lines := Assemble(segs, 1e-9); len(lines) != 2 {
		t.Fatalf("tight tol: got %d", len(lines))
	}
	if lines := Assemble(segs, 1e-5); len(lines) != 1 {
		t.Fatalf("loose tol: got %d", len(lines))
	}
}

func TestContourFromValueQuery(t *testing.T) {
	// Isolines of a smooth fractal DEM, produced by an exact value query
	// through the I-Hilbert index, must assemble into long polylines
	// (far fewer components than raw segments) and every vertex must lie
	// on the queried level within interpolation tolerance.
	heights, err := fractal.DiamondSquare(32, 0.9, 21)
	if err != nil {
		t.Fatal(err)
	}
	fractal.Normalize(heights, 0, 100)
	d, err := grid.New(geom.Pt(0, 0), 1, 1, 32, 32, heights)
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 0)
	idx, err := core.Build(context.Background(), d, pager, core.BuildOptions{Method: core.MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Query(geom.Interval{Lo: 50, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Isolines) < 10 {
		t.Skipf("level 50 cuts only %d segments", len(res.Isolines))
	}
	lines := Assemble(res.Isolines, 1e-9)
	if len(lines) >= len(res.Isolines)/2 {
		t.Fatalf("%d segments assembled into %d polylines — no joining happened",
			len(res.Isolines), len(lines))
	}
	// Conservation: total length unchanged by assembly.
	segLen := 0.0
	for _, s := range res.Isolines {
		segLen += s[0].Dist(s[1])
	}
	lineLen := 0.0
	for _, l := range lines {
		lineLen += l.Length()
	}
	if math.Abs(segLen-lineLen) > 1e-6*segLen {
		t.Fatalf("length changed: %g vs %g", segLen, lineLen)
	}
}
