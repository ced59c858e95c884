package volume

import (
	"math"
	"math/rand"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

func TestNewVoxelGridValidation(t *testing.T) {
	if _, err := NewVoxelGrid(0, 1, 1, 1, 1, 1, nil); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := NewVoxelGrid(1, 1, 1, 0, 1, 1, make([]float64, 8)); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewVoxelGrid(1, 1, 1, 1, 1, 1, make([]float64, 7)); err == nil {
		t.Fatal("wrong sample count accepted")
	}
	bad := make([]float64, 8)
	bad[3] = math.NaN()
	if _, err := NewVoxelGrid(1, 1, 1, 1, 1, 1, bad); err == nil {
		t.Fatal("NaN sample accepted")
	}
}

func TestValueAtLinearField(t *testing.T) {
	// A linear function is reproduced exactly by the piecewise-linear
	// interpolant.
	g, err := FromFunc(4, 4, 4, 1, 1, 1, func(x, y, z float64) float64 {
		return 2*x - 3*y + z + 5
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x, y, z := rng.Float64()*4, rng.Float64()*4, rng.Float64()*4
		got, ok := g.ValueAt(x, y, z)
		if !ok {
			t.Fatalf("(%g,%g,%g) outside", x, y, z)
		}
		want := 2*x - 3*y + z + 5
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("ValueAt(%g,%g,%g) = %g, want %g", x, y, z, got, want)
		}
	}
	if _, ok := g.ValueAt(-1, 0, 0); ok {
		t.Fatal("outside point evaluated")
	}
}

func TestSimplexFractionBelow(t *testing.T) {
	v := [4]float64{0, 1, 2, 3}
	if got := simplexFractionBelow(v, -1); got != 0 {
		t.Fatalf("below min = %g", got)
	}
	if got := simplexFractionBelow(v, 4); got != 1 {
		t.Fatalf("above max = %g", got)
	}
	// Monotone in t.
	prev := 0.0
	for tt := 0.0; tt <= 3.0; tt += 0.05 {
		got := simplexFractionBelow(v, tt)
		if got < prev-1e-12 {
			t.Fatalf("not monotone at %g: %g < %g", tt, got, prev)
		}
		prev = got
	}
	// Degenerate constant tetrahedron.
	c := [4]float64{5, 5, 5, 5}
	if got := simplexFractionBelow(c, 6); got != 1 {
		t.Fatalf("constant below = %g", got)
	}
	if got := simplexFractionBelow(c, 4); got != 0 {
		t.Fatalf("constant above = %g", got)
	}
}

func TestSimplexFractionMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		var v [4]float64
		for i := range v {
			v[i] = rng.Float64() * 10
		}
		tt := rng.Float64() * 10
		got := simplexFractionBelow(v, tt)
		// Monte-Carlo: sample barycentric coordinates uniformly over the
		// simplex via -log(U) normalization.
		const samples = 40000
		in := 0
		for s := 0; s < samples; s++ {
			var l [4]float64
			sum := 0.0
			for i := range l {
				l[i] = -math.Log(rng.Float64())
				sum += l[i]
			}
			w := 0.0
			for i := range l {
				w += v[i] * l[i] / sum
			}
			if w <= tt {
				in++
			}
		}
		want := float64(in) / samples
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("trial %d: fraction %g vs Monte-Carlo %g (v=%v t=%g)", trial, got, want, v, tt)
		}
	}
}

func TestCellBandVolumePartitions(t *testing.T) {
	// Complementary bands partition the cell volume.
	g, _ := FromFunc(3, 3, 3, 2, 2, 2, func(x, y, z float64) float64 {
		return math.Sin(x) + math.Cos(y)*z
	})
	rng := rand.New(rand.NewSource(4))
	for id := 0; id < g.NumCells(); id++ {
		lo, hi := g.CellInterval(CellID(id))
		split := lo + rng.Float64()*(hi-lo)
		below := g.CellBandVolume(CellID(id), lo-1, split)
		above := g.CellBandVolume(CellID(id), split, hi+1)
		if math.Abs(below+above-g.CellVolume()) > 1e-6*g.CellVolume() {
			t.Fatalf("cell %d: %g + %g != %g", id, below, above, g.CellVolume())
		}
	}
}

func TestIndexMatchesScan(t *testing.T) {
	g, err := FromFunc(16, 16, 16, 1, 1, 1, func(x, y, z float64) float64 {
		return x + 10*math.Sin(y/3) + 5*math.Cos(z/2)
	})
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1024)
	ix, err := BuildIndex(g, pager)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumGroups() == 0 || ix.NumGroups() >= g.NumCells() {
		t.Fatalf("groups = %d for %d cells", ix.NumGroups(), g.NumCells())
	}
	lo, hi := g.ValueRange()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		qlo := lo + rng.Float64()*(hi-lo)
		q := geom.Interval{Lo: qlo, Hi: qlo + rng.Float64()*(hi-lo)*0.1}
		want, err := ix.ScanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.CellsMatched != want.CellsMatched {
			t.Fatalf("query %v: matched %d, want %d", q, got.CellsMatched, want.CellsMatched)
		}
		if math.Abs(got.Volume-want.Volume) > 1e-9*(1+want.Volume) {
			t.Fatalf("query %v: volume %g, want %g", q, got.Volume, want.Volume)
		}
		// The index must test far fewer cells than the scan for narrow
		// queries.
		if got.CellsTested >= want.CellsTested {
			t.Fatalf("index tested %d >= scan %d", got.CellsTested, want.CellsTested)
		}
	}
	if _, err := ix.Query(geom.EmptyInterval()); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := ix.ScanQuery(geom.EmptyInterval()); err == nil {
		t.Fatal("empty scan accepted")
	}
}

func TestIndexVolumeSanity(t *testing.T) {
	// Full-range query over w = z: total volume equals the grid volume;
	// half-range equals half.
	g, _ := FromFunc(8, 8, 8, 1, 1, 1, func(x, y, z float64) float64 { return z })
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 0)
	ix, err := BuildIndex(g, pager)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Query(geom.Interval{Lo: -1, Hi: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Volume-512) > 1e-6 {
		t.Fatalf("full volume = %g, want 512", res.Volume)
	}
	res, err = ix.Query(geom.Interval{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Volume-256) > 1e-6 {
		t.Fatalf("half volume = %g, want 256", res.Volume)
	}
}
