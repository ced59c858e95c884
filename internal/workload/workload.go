// Package workload builds the datasets and query workloads of the paper's
// evaluation (§4): the real-terrain and urban-noise stand-ins, the fractal
// DEM sweep over the roughness constant H, the monotonic field, and the
// 200-query random interval workloads per Qinterval.
//
// Substitutions (documented in DESIGN.md): the USGS Roseburg DEM is replaced
// by a deterministic diamond-square terrain of identical size and model, and
// the proprietary Lyon noise TIN by a synthetic noise surface (ambient base
// plus road-line and point sources) triangulated to ~9,000 cells. Both
// preserve the properties the experiments exercise.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"fielddb/internal/field"
	"fielddb/internal/fractal"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/tin"
)

// Terrain builds the stand-in for the paper's 512×512 USGS terrain DEM
// (Fig 8a): a diamond-square fractal with mid-high roughness, elevations
// scaled to a plausible 200–1400 m range. side must be a power of two.
func Terrain(side int, seed int64) (*grid.DEM, error) {
	heights, err := fractal.DiamondSquare(side, 0.7, seed)
	if err != nil {
		return nil, err
	}
	fractal.Normalize(heights, 200, 1400)
	return grid.New(geom.Pt(0, 0), 30, 30, side, side, heights) // 30 m posts, USGS-style
}

// FractalDEM builds the Fig 11 synthetic dataset: a side×side diamond-square
// DEM with roughness H, values normalized to [0, 1] as the paper normalizes
// the value space.
func FractalDEM(side int, h float64, seed int64) (*grid.DEM, error) {
	heights, err := fractal.DiamondSquare(side, h, seed)
	if err != nil {
		return nil, err
	}
	fractal.Normalize(heights, 0, 1)
	return grid.New(geom.Pt(0, 0), 1, 1, side, side, heights)
}

// Monotonic builds the Fig 12 dataset: w(x, y) = x + y over side×side cells.
func Monotonic(side int) (*grid.DEM, error) {
	return grid.FromFunc(geom.Pt(0, 0), 1, 1, side, side, func(x, y float64) float64 {
		return x + y
	})
}

// NoiseTIN builds the stand-in for the paper's Lyon urban noise TIN
// (Fig 8b): nPoints sample points over a 4×3 km area with an ambient level,
// three road corridors (line sources) and a handful of point sources, in dB.
// The default of ~4,600 points yields roughly 9,000 triangles.
func NoiseTIN(nPoints int, seed int64) (*tin.TIN, error) {
	if nPoints < 10 {
		return nil, fmt.Errorf("workload: need at least 10 noise samples, got %d", nPoints)
	}
	rng := rand.New(rand.NewSource(seed))
	const width, height = 4000.0, 3000.0
	type segment struct{ a, b geom.Point }
	roads := []segment{
		{geom.Pt(0, 600), geom.Pt(width, 900)},
		{geom.Pt(500, 0), geom.Pt(700, height)},
		{geom.Pt(0, 2400), geom.Pt(width, 1800)},
	}
	type src struct {
		p  geom.Point
		db float64
	}
	sources := []src{
		{geom.Pt(800, 700), 95},
		{geom.Pt(2900, 2100), 90},
		{geom.Pt(2000, 400), 88},
		{geom.Pt(3500, 800), 92},
	}
	distSeg := func(p geom.Point, s segment) float64 {
		d := s.b.Sub(s.a)
		l2 := d.Dot(d)
		if l2 == 0 {
			return p.Dist(s.a)
		}
		t := p.Sub(s.a).Dot(d) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		return p.Dist(s.a.Add(d.Scale(t)))
	}
	level := func(p geom.Point) float64 {
		// Energetic sum of ambient + attenuated sources, expressed in dB.
		sum := math.Pow(10, 42.0/10) // ambient 42 dB
		for _, r := range roads {
			d := distSeg(p, r) + 10
			db := 85 - 18*math.Log10(d/10)
			sum += math.Pow(10, db/10)
		}
		for _, s := range sources {
			d := p.Dist(s.p) + 10
			db := s.db - 22*math.Log10(d/10)
			sum += math.Pow(10, db/10)
		}
		return 10 * math.Log10(sum)
	}
	pts := make([]geom.Point, 0, nPoints+4)
	vals := make([]float64, 0, nPoints+4)
	add := func(p geom.Point) {
		pts = append(pts, p)
		vals = append(vals, level(p)+rng.NormFloat64()*0.5) // measurement noise
	}
	// Corners anchor the hull so the TIN covers the whole area.
	add(geom.Pt(0, 0))
	add(geom.Pt(width, 0))
	add(geom.Pt(width, height))
	add(geom.Pt(0, height))
	for len(pts) < nPoints {
		add(geom.Pt(rng.Float64()*width, rng.Float64()*height))
	}
	return tin.FromPoints(pts, vals)
}

// Queries generates the paper's workload: count random interval queries of
// relative width qinterval (fraction of the normalized value space [0, 1]).
// A width of 0 produces exact value queries. Query positions are uniform
// over the field's value range, as in §4.
func Queries(vr geom.Interval, qinterval float64, count int, seed int64) []geom.Interval {
	rng := rand.New(rand.NewSource(seed))
	width := qinterval * vr.Length()
	out := make([]geom.Interval, count)
	for i := range out {
		lo := vr.Lo + rng.Float64()*(vr.Length()-width)
		out[i] = geom.Interval{Lo: lo, Hi: lo + width}
	}
	return out
}

// QIntervalsReal is the Qinterval grid of the real-data experiments (Fig 8).
var QIntervalsReal = []float64{0, 0.02, 0.04, 0.06, 0.08, 0.1}

// QIntervalsSynthetic is the Qinterval grid of the synthetic experiments
// (Fig 11 and Fig 12).
var QIntervalsSynthetic = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}

// HSweep is the roughness grid of Fig 11.
var HSweep = []float64{0.1, 0.3, 0.6, 0.9}

// QueryCount is the number of random queries averaged per Qinterval point
// in every experiment of §4.
const QueryCount = 200

var _ field.Field = (*grid.DEM)(nil)
