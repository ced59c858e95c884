// Command fieldquery answers field value queries and conventional point
// queries against a .fdb dataset produced by fieldgen, or against a .fidx
// stored index, which answers them without the dataset (a point query only
// where the index was saved from a DEM).
//
// Usage:
//
//	fieldquery -db terrain.fdb -range 700:750          # F⁻¹(700 ≤ w ≤ 750)
//	fieldquery -db terrain.fdb -above 1200             # w ≥ 1200
//	fieldquery -db terrain.fdb -at 120.5,340.25        # F(v')
//	fieldquery -db terrain.fdb -range 700:750 -method I-All -stats
//	fieldquery -index terrain.fidx -at 120.5,340.25     # F(v') off the index
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fielddb"
	"fielddb/internal/field"
	"fielddb/internal/fio"
	"fielddb/internal/geom"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fieldquery:", err)
		os.Exit(1)
	}
}

// run parses args, opens the dataset or the stored index they name and
// answers the one query they ask for on stdout. A usage error is
// flag.ErrHelp, after the usage went to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fieldquery", flag.ContinueOnError)
	var (
		dbPath   = fs.String("db", "", "path to a .fdb dataset")
		idxPath  = fs.String("index", "", "path to a .fidx stored index (skips building)")
		saveIdx  = fs.String("saveindex", "", "after building, save the value index to this .fidx file (the path must not exist or be empty)")
		rangeArg = fs.String("range", "", "value query lo:hi")
		aboveArg = fs.String("above", "", "value query w >= bound")
		belowArg = fs.String("below", "", "value query w <= bound")
		atArg    = fs.String("at", "", "conventional point query x,y")
		contourW = fs.String("contour", "", "extract the isoline at this value as polylines")
		method   = fs.String("method", "I-Hilbert", "index method: LinearScan | I-All | I-Hilbert")
		stats    = fs.Bool("stats", false, "print index and I/O statistics")
		regions  = fs.Int("regions", 5, "max answer regions to print")
	)
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the flag set reported it
	}
	var (
		q  fielddb.Querier
		f  field.Field // the dataset, with -db
		db *fielddb.DB // built on it
	)
	switch {
	case *idxPath != "":
		// A stored index answers without the dataset.
		si, err := fielddb.OpenIndex(*idxPath)
		if err != nil {
			return err
		}
		defer si.Close()
		q = si
	case *dbPath != "":
		var err error
		if f, err = fio.LoadFile(*dbPath); err != nil {
			return err
		}
		if db, err = fielddb.Open(f, fielddb.Options{Method: fielddb.Method(*method)}); err != nil {
			return err
		}
		defer db.Close()
		if *saveIdx != "" {
			if err := db.SaveIndex(*saveIdx); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "saved index to", *saveIdx)
		}
		q = db
	default:
		fs.Usage()
		return flag.ErrHelp
	}
	if *stats {
		fmt.Fprintln(stdout, "index:", q.Stats())
	}

	ctx := context.Background()
	switch {
	case *contourW != "":
		level, err := strconv.ParseFloat(*contourW, 64)
		if err != nil {
			return err
		}
		lines, err := q.ContoursContext(ctx, level)
		if err != nil {
			return err
		}
		closed := 0
		totalLen := 0.0
		for _, l := range lines {
			if l.Closed() {
				closed++
			}
			totalLen += l.Length()
		}
		fmt.Fprintf(stdout, "isoline w = %g: %d polylines (%d closed), total length %.2f\n",
			level, len(lines), closed, totalLen)
		for i, l := range lines {
			if i >= *regions {
				fmt.Fprintf(stdout, "  ... %d more polylines\n", len(lines)-*regions)
				break
			}
			fmt.Fprintf(stdout, "  polyline %d: %d points, length %.2f, from %v\n", i, len(l), l.Length(), l[0])
		}
	case *atArg != "":
		p, err := parsePoint(*atArg)
		if err != nil {
			return err
		}
		w, err := q.PointQueryContext(ctx, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "F(%v) = %g\n", p, w)
	case *rangeArg != "" || *aboveArg != "" || *belowArg != "":
		res, err := valueQuery(ctx, q, *rangeArg, *aboveArg, *belowArg)
		if err != nil {
			return err
		}
		printResult(stdout, res, *regions)
	default:
		if f != nil {
			fmt.Fprintf(stdout, "dataset: %d cells, bounds %v, values %v\n", f.NumCells(), f.Bounds(), f.ValueRange())
		}
		fmt.Fprintln(stdout, "specify one of -range, -above, -below, -at")
	}
	if *stats && db != nil {
		fmt.Fprintln(stdout, "io:", db.IOStats())
	}
	return nil
}

// valueQuery answers the first of -range, -above and -below that is set.
func valueQuery(ctx context.Context, q fielddb.Querier, rangeArg, aboveArg, belowArg string) (*fielddb.Result, error) {
	if rangeArg != "" {
		lo, hi, err := parseRange(rangeArg)
		if err != nil {
			return nil, err
		}
		return q.ValueQueryContext(ctx, lo, hi)
	}
	arg, query := aboveArg, q.ValueAboveContext
	if arg == "" {
		arg, query = belowArg, q.ValueBelowContext
	}
	bound, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		return nil, err
	}
	return query(ctx, bound)
}

func printResult(w io.Writer, res *fielddb.Result, maxRegions int) {
	fmt.Fprintf(w, "query %v: %d subfields selected, %d cells fetched, %d matched\n",
		res.Query, res.CandidateGroups, res.CellsFetched, res.CellsMatched)
	fmt.Fprintf(w, "answer: %d regions, total area %.4f; %d isolines\n",
		len(res.Regions), res.Area, len(res.Isolines))
	fmt.Fprintf(w, "io: %v\n", res.IO)
	for i, pg := range res.Regions {
		if i >= maxRegions {
			fmt.Fprintf(w, "  ... %d more regions\n", len(res.Regions)-maxRegions)
			break
		}
		c := pg.Centroid()
		fmt.Fprintf(w, "  region %d: area %.4f around (%.2f, %.2f)\n", i, pg.Area(), c.X, c.Y)
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
