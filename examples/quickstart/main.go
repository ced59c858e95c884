// Quickstart: build a continuous field, index it with I-Hilbert, and run
// both query classes of a field database — the value query F⁻¹(lo ≤ w ≤ hi)
// ("where is the elevation between 700 and 900 m?") and the conventional
// query F(v') ("what is the elevation here?").
package main

import (
	"fmt"
	"log"

	"fielddb"
	"fielddb/internal/geom"
)

func main() {
	// A 256×256-cell fractal terrain, elevations 200–1400 m on a 30 m grid
	// (a deterministic stand-in for a USGS DEM tile).
	dem, err := fielddb.TerrainDEM(256, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Open builds the paper's I-Hilbert value index (cells linearized by
	// the Hilbert value of their centers, grouped into subfields, subfield
	// intervals in a 1-D R*-tree); a DEM's lattice locates point queries.
	db, err := fielddb.Open(dem, fielddb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("indexed %d cells into %d subfields (%d index pages, tree height %d)\n\n",
		st.Cells, st.Groups, st.IndexPages, st.TreeHeight)

	// Field value query: regions with elevation in [700 m, 900 m].
	res, err := db.ValueQuery(700, 900)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elevation in [700, 900] m:\n")
	fmt.Printf("  filter step selected %d subfields; %d cells fetched, %d matched\n",
		res.CandidateGroups, res.CellsFetched, res.CellsMatched)
	fmt.Printf("  answer: %d regions, total area %.1f m² (%.1f%% of the map)\n",
		len(res.Regions), res.Area, 100*res.Area/dem.Bounds().Area())
	fmt.Printf("  I/O: %v\n\n", res.IO)

	// Exact value query: the 1000 m contour comes back as isolines.
	iso, err := db.ValueQuery(1000, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1000 m contour: %d isoline segments across %d cells\n\n",
		len(iso.Isolines), iso.CellsMatched)

	// Conventional point query.
	p := geom.Pt(3100, 4700)
	w, err := db.PointQuery(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elevation at %v = %.1f m\n", p, w)
}
