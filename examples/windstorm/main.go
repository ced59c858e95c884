// Windstorm: the paper's future-work case (§5) — vector fields such as
// wind. Two scalar component fields (u, v) over one grid form a
// field.VectorField; the magnitude index answers "where does the wind
// exceed storm force?" with a conservative filter over per-cell magnitude
// bounds refined by in-cell evaluation.
package main

import (
	"fmt"
	"log"
	"math"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/magnitude"
	"fielddb/internal/storage"
)

func main() {
	// Synthetic pressure-driven wind over a 200×200 km region: a cyclone
	// plus a jet streak, in m/s components.
	const side = 96
	const km = 200.0 / side
	cyclone := geom.Pt(70, 120)
	// Rankine-style vortex: tangential speed peaks at ~35 m/s at radius
	// 25 km and decays outward; plus a low-latitude jet streak.
	tangential := func(r float64) float64 { return 35 * (r / 25) * math.Exp(1-r/25) }
	u, err := grid.FromFunc(geom.Pt(0, 0), km, km, side, side, func(x, y float64) float64 {
		r := geom.Pt(x, y).Dist(cyclone) + 1e-9
		jet := 18 * math.Exp(-math.Pow((y-40)/18, 2))
		return -(y-cyclone.Y)/r*tangential(r) + jet
	})
	if err != nil {
		log.Fatal(err)
	}
	v, err := grid.FromFunc(geom.Pt(0, 0), km, km, side, side, func(x, y float64) float64 {
		r := geom.Pt(x, y).Dist(cyclone) + 1e-9
		return (x - cyclone.X) / r * tangential(r)
	})
	if err != nil {
		log.Fatal(err)
	}
	wind, err := field.NewVectorField(u, v)
	if err != nil {
		log.Fatal(err)
	}

	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<14)
	ix, err := magnitude.Build(wind, pager, magnitude.Options{RefineGrid: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wind field: %d cells, %d magnitude subfields\n\n", wind.NumCells(), ix.NumGroups())

	total := wind.Bounds().Area()
	for _, band := range []struct {
		name   string
		lo, hi float64
	}{
		{"fresh breeze  (8–14 m/s)", 8, 14},
		{"gale          (14–21 m/s)", 14, 21},
		{"storm         (21–28 m/s)", 21, 28},
		{"hurricane     (> 28 m/s)", 28, 200},
	} {
		res, err := ix.Query(geom.Interval{Lo: band.lo, Hi: band.hi})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %6.1f%% of the region (%4d cells matched; filter tested %5d of %d)\n",
			band.name, 100*res.Area/total, len(res.MatchedCells), res.CellsTested, wind.NumCells())
	}

	// Spot check: peak gust location.
	peak, peakMag := geom.Point{}, 0.0
	for y := 0.5; y < 200; y += 2 {
		for x := 0.5; x < 200; x += 2 {
			if m, ok := wind.MagnitudeAt(geom.Pt(x, y)); ok && m > peakMag {
				peak, peakMag = geom.Pt(x, y), m
			}
		}
	}
	fmt.Printf("\npeak wind %.1f m/s near (%.0f km, %.0f km)\n", peakMag, peak.X, peak.Y)
}
