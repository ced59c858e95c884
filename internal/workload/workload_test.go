package workload

import (
	"math"
	"testing"

	"fielddb/internal/geom"
)

func TestTerrain(t *testing.T) {
	d, err := Terrain(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCells() != 64*64 {
		t.Fatalf("cells = %d", d.NumCells())
	}
	vr := d.ValueRange()
	if vr.Lo != 200 || vr.Hi != 1400 {
		t.Fatalf("elevation range = %v", vr)
	}
	// Deterministic.
	d2, _ := Terrain(64, 1)
	if d2.VertexHeight(10, 10) != d.VertexHeight(10, 10) {
		t.Fatal("terrain not deterministic")
	}
}

func TestFractalDEMNormalized(t *testing.T) {
	d, err := FractalDEM(32, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	vr := d.ValueRange()
	if vr.Lo != 0 || vr.Hi != 1 {
		t.Fatalf("value range = %v, want [0,1]", vr)
	}
	if _, err := FractalDEM(33, 0.5, 7); err == nil {
		t.Fatal("non-power-of-two side accepted")
	}
}

func TestMonotonic(t *testing.T) {
	d, err := Monotonic(16)
	if err != nil {
		t.Fatal(err)
	}
	vr := d.ValueRange()
	if vr.Lo != 0 || vr.Hi != 32 {
		t.Fatalf("value range = %v", vr)
	}
	if d.VertexHeight(3, 5) != 8 {
		t.Fatalf("w(3,5) = %g", d.VertexHeight(3, 5))
	}
}

func TestNoiseTIN(t *testing.T) {
	tn, err := NoiseTIN(600, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Noise levels must look like dB values: ambient ≥ ~40, peaks < 120.
	vr := tn.ValueRange()
	if vr.Lo < 30 || vr.Hi > 120 || vr.Length() < 10 {
		t.Fatalf("noise range = %v — not dB-like", vr)
	}
	// Triangle count ~ 2× point count.
	if tn.NumCells() < 600 || tn.NumCells() > 1400 {
		t.Fatalf("cells = %d for 600 points", tn.NumCells())
	}
	if _, err := NoiseTIN(3, 1); err == nil {
		t.Fatal("tiny TIN accepted")
	}
}

func TestDefaultNoiseTINSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tn, err := NoiseTIN(4600, 907) // the Fig 8b dataset at its paper-like size
	if err != nil {
		t.Fatal(err)
	}
	// "about 9000 triangles" (§4.1).
	if tn.NumCells() < 8000 || tn.NumCells() > 10000 {
		t.Fatalf("default noise TIN has %d triangles, want ≈9000", tn.NumCells())
	}
}

func TestQueries(t *testing.T) {
	vr := geom.Interval{Lo: 100, Hi: 200}
	qs := Queries(vr, 0.1, QueryCount, 1)
	if len(qs) != QueryCount {
		t.Fatalf("count = %d", len(qs))
	}
	for _, q := range qs {
		if q.Lo < vr.Lo-1e-9 || q.Hi > vr.Hi+1e-9 {
			t.Fatalf("query %v outside range %v", q, vr)
		}
		if math.Abs(q.Length()-10) > 1e-9 {
			t.Fatalf("query width %g, want 10", q.Length())
		}
	}
	// Exact queries.
	for _, q := range Queries(vr, 0, 50, 2) {
		if q.Length() != 0 {
			t.Fatalf("exact query has width %g", q.Length())
		}
	}
	// Determinism.
	a := Queries(vr, 0.05, 10, 3)
	b := Queries(vr, 0.05, 10, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("queries not deterministic")
		}
	}
}

func TestGrids(t *testing.T) {
	if len(QIntervalsReal) != 6 || QIntervalsReal[5] != 0.1 {
		t.Fatalf("QIntervalsReal = %v", QIntervalsReal)
	}
	if len(QIntervalsSynthetic) != 6 || QIntervalsSynthetic[5] != 0.05 {
		t.Fatalf("QIntervalsSynthetic = %v", QIntervalsSynthetic)
	}
	if len(HSweep) != 4 {
		t.Fatalf("HSweep = %v", HSweep)
	}
}
