// Command fieldquery answers field value queries and conventional point
// queries against a .fdb dataset produced by fieldgen.
//
// Usage:
//
//	fieldquery -db terrain.fdb -range 700:750          # F⁻¹(700 ≤ w ≤ 750)
//	fieldquery -db terrain.fdb -above 1200             # w ≥ 1200
//	fieldquery -db terrain.fdb -at 120.5,340.25        # F(v')
//	fieldquery -db terrain.fdb -range 700:750 -method I-All -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fielddb"
	"fielddb/internal/fio"
	"fielddb/internal/geom"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "path to a .fdb dataset")
		idxPath  = flag.String("index", "", "path to a .fidx stored index (skips building)")
		saveIdx  = flag.String("saveindex", "", "after building, save the value index to this .fidx file (the path must not exist or be empty)")
		rangeArg = flag.String("range", "", "value query lo:hi")
		aboveArg = flag.String("above", "", "value query w >= bound")
		belowArg = flag.String("below", "", "value query w <= bound")
		atArg    = flag.String("at", "", "conventional point query x,y")
		contourW = flag.String("contour", "", "extract the isoline at this value as polylines")
		method   = flag.String("method", "I-Hilbert", "index method: LinearScan | I-All | I-Hilbert")
		stats    = flag.Bool("stats", false, "print index and I/O statistics")
		regions  = flag.Int("regions", 5, "max answer regions to print")
	)
	flag.Parse()

	// A stored index answers value queries without the dataset.
	if *idxPath != "" {
		si, err := fielddb.OpenIndex(*idxPath)
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Println("index:", si.Stats())
		}
		lo, hi, err := parseRange(*rangeArg)
		if err != nil {
			fatal(fmt.Errorf("-index mode needs -range lo:hi: %w", err))
		}
		res, err := si.ValueQuery(lo, hi)
		if err != nil {
			fatal(err)
		}
		printResult(res, *regions)
		return
	}

	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := fio.LoadFile(*dbPath)
	if err != nil {
		fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.Method(*method)})
	if err != nil {
		fatal(err)
	}
	if *saveIdx != "" {
		if err := db.SaveIndex(*saveIdx); err != nil {
			fatal(err)
		}
		fmt.Println("saved index to", *saveIdx)
	}
	if *stats {
		fmt.Println("index:", db.Stats())
	}

	switch {
	case *contourW != "":
		level, err := strconv.ParseFloat(*contourW, 64)
		if err != nil {
			fatal(err)
		}
		lines, err := db.Contours(level)
		if err != nil {
			fatal(err)
		}
		closed := 0
		totalLen := 0.0
		for _, l := range lines {
			if l.Closed() {
				closed++
			}
			totalLen += l.Length()
		}
		fmt.Printf("isoline w = %g: %d polylines (%d closed), total length %.2f\n",
			level, len(lines), closed, totalLen)
		for i, l := range lines {
			if i >= *regions {
				fmt.Printf("  ... %d more polylines\n", len(lines)-*regions)
				break
			}
			fmt.Printf("  polyline %d: %d points, length %.2f, from %v\n", i, len(l), l.Length(), l[0])
		}
	case *atArg != "":
		p, err := parsePoint(*atArg)
		if err != nil {
			fatal(err)
		}
		w, err := db.PointQuery(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("F(%v) = %g\n", p, w)
	case *rangeArg != "":
		lo, hi, err := parseRange(*rangeArg)
		if err != nil {
			fatal(err)
		}
		res, err := db.ValueQuery(lo, hi)
		if err != nil {
			fatal(err)
		}
		printResult(res, *regions)
	case *aboveArg != "":
		bound, err := strconv.ParseFloat(*aboveArg, 64)
		if err != nil {
			fatal(err)
		}
		res, err := db.ValueAbove(bound)
		if err != nil {
			fatal(err)
		}
		printResult(res, *regions)
	case *belowArg != "":
		bound, err := strconv.ParseFloat(*belowArg, 64)
		if err != nil {
			fatal(err)
		}
		res, err := db.ValueBelow(bound)
		if err != nil {
			fatal(err)
		}
		printResult(res, *regions)
	default:
		vr := f.ValueRange()
		fmt.Printf("dataset: %d cells, bounds %v, values %v\n", f.NumCells(), f.Bounds(), vr)
		fmt.Println("specify one of -range, -above, -below, -at")
	}
	if *stats {
		fmt.Println("io:", db.IOStats())
	}
}

func printResult(res *fielddb.Result, maxRegions int) {
	fmt.Printf("query %v: %d subfields selected, %d cells fetched, %d matched\n",
		res.Query, res.CandidateGroups, res.CellsFetched, res.CellsMatched)
	fmt.Printf("answer: %d regions, total area %.4f; %d isolines\n",
		len(res.Regions), res.Area, len(res.Isolines))
	fmt.Printf("io: %v\n", res.IO)
	for i, pg := range res.Regions {
		if i >= maxRegions {
			fmt.Printf("  ... %d more regions\n", len(res.Regions)-maxRegions)
			break
		}
		c := pg.Centroid()
		fmt.Printf("  region %d: area %.4f around (%.2f, %.2f)\n", i, pg.Area(), c.X, c.Y)
	}
}

func parsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Point{}, fmt.Errorf("want x,y, got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}

func parseRange(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	lo, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return 0, 0, err
	}
	hi, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fieldquery:", err)
	os.Exit(1)
}
