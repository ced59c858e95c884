// Geology: the paper's introduction motivates 3-D fields — "three-dimensional
// fields can model geological structures". This example builds a synthetic
// ore-grade volume (a folded, depth-attenuated mineralization plume sampled
// on a 48³ voxel grid), indexes it with the 3-D I-Hilbert subfield index,
// and asks the volumetric value query a mining engineer would:
//
//	"how much rock has an ore grade between 2.0 and 3.5 g/t?"
package main

import (
	"fmt"
	"log"
	"math"

	"fielddb/internal/geom"
	"fielddb/internal/storage"
	"fielddb/internal/volume"
)

func main() {
	const side = 48   // cells per axis
	const cell = 10.0 // meters
	grade := func(x, y, z float64) float64 {
		// A dipping mineralized sheet with two enrichment pods.
		sheet := math.Exp(-math.Pow((z-120-0.3*x-20*math.Sin(y/80))/25, 2))
		pod1 := 2.5 * math.Exp(-((x-150)*(x-150)+(y-200)*(y-200)+(z-140)*(z-140))/4500)
		pod2 := 1.8 * math.Exp(-((x-320)*(x-320)+(y-120)*(y-120)+(z-180)*(z-180))/6000)
		return 0.2 + 3.2*sheet + pod1 + pod2 // grams per tonne
	}
	g, err := volume.FromFunc(side, side, side, cell, cell, cell, grade)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := g.ValueRange()
	fmt.Printf("ore body model: %d voxels (%d m side), grades %.2f–%.2f g/t\n",
		g.NumCells(), side*int(cell), lo, hi)

	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<14)
	ix, err := volume.BuildIndex(g, pager)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-D I-Hilbert index: %d subfields over %d cells\n\n", ix.NumGroups(), g.NumCells())

	for _, band := range []struct {
		name   string
		lo, hi float64
	}{
		{"waste        (< 0.5 g/t)", lo, 0.5},
		{"low grade    (0.5–2.0)", 0.5, 2.0},
		{"mill feed    (2.0–3.5)", 2.0, 3.5},
		{"high grade   (> 3.5)", 3.5, hi},
	} {
		res, err := ix.Query(geom.Interval{Lo: band.lo, Hi: band.hi})
		if err != nil {
			log.Fatal(err)
		}
		scan, err := ix.ScanQuery(geom.Interval{Lo: band.lo, Hi: band.hi})
		if err != nil {
			log.Fatal(err)
		}
		tonnes := res.Volume * 2.7 / 1000 // 2.7 t/m³, in kilotonnes
		fmt.Printf("%-26s %10.0f m³ (%6.0f kt), %5d cells matched; index tested %6d cells vs %6d scanned\n",
			band.name, res.Volume, tonnes, res.CellsMatched, res.CellsTested, scan.CellsTested)
	}
}
