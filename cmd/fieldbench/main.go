// Command fieldbench regenerates the paper's evaluation: every figure's
// series table (average query execution time per method and Qinterval) plus
// the related-work comparison of §2.3.
//
// Usage:
//
//	fieldbench -list                 # show available experiments
//	fieldbench -fig fig8a            # run one figure at default (1/4) scale
//	fieldbench -fig all -full        # run everything at the paper's sizes
//	fieldbench -fig fig11-H0.9 -csv out.csv
//
// Default scale divides the paper's linear dataset sizes by 4 and the
// query count by 4, which preserves every qualitative shape while running
// in seconds; -full uses the paper's exact sizes (512×512 terrain,
// 1024×1024 fractals, ~9,000-triangle TIN, 200 queries per point).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fielddb/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment name (see -list) or 'all'")
		full    = flag.Bool("full", false, "use the paper's full dataset sizes")
		queries = flag.Int("queries", 0, "override queries per Qinterval point")
		csvPath = flag.String("csv", "", "append CSV rows to this file")
		list    = flag.Bool("list", false, "list experiments and exit")
		chart   = flag.Bool("chart", false, "render each figure as an ASCII bar chart")
		metric  = flag.String("metric", "wall", "chart metric: wall | sim")
		asJSON  = flag.Bool("json", false, "emit results as machine-readable JSON instead of tables")
		metrics = flag.Bool("metrics", false, "run a mixed demo workload and dump the engine metrics registry")

		clients     = flag.Int("clients", 0, "run a concurrent value-range load with N client goroutines and report throughput, latency quantiles, and batch coalescing")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "admission window for -clients: the longest an arrival that finds every core busy waits to share one scan with the others; an arrival that finds a core free runs at once (0 disables batching)")

		benchJSON = flag.String("bench-json", "", "measure the deterministic simulated-page suites (solo, concurrent, update-load, tiled, aggregate; in process) and write {name: row} JSON to this file ('-' for stdout)")
		compare   = flag.Bool("compare", false, "compare two benchmark JSON files (args: old.json new.json); exits 1 if new regresses pages/op or simns/op beyond -tolerance")
		tolerance = flag.Float64("tolerance", 0.01, "relative regression tolerance for -compare")
	)
	flag.Parse()

	if *benchJSON != "" {
		runBenchJSON(*benchJSON)
		return
	}
	if *compare {
		runCompare(flag.Args(), *tolerance)
		return
	}

	if *clients > 0 {
		side, nq := 128, 256
		if *full {
			side, nq = 256, 1024
		}
		if *queries > 0 {
			nq = *queries
		}
		runClients(side, *clients, nq, *batchWindow, *asJSON)
		return
	}

	if *metrics {
		side, nq := 128, 16
		if *full {
			side, nq = 512, 64
		}
		if *queries > 0 {
			nq = *queries
		}
		runMetricsDemo(side, nq, *asJSON)
		return
	}

	scale := bench.Scale{Full: *full}
	if *list {
		for _, e := range bench.All(scale) {
			fmt.Printf("%-16s %s\n", e.Name, e.Title)
		}
		return
	}

	var exps []bench.Experiment
	if *fig == "all" {
		exps = bench.All(scale)
	} else {
		for _, name := range strings.Split(*fig, ",") {
			e, err := bench.ByName(strings.TrimSpace(name), scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	var csv *os.File
	if *csvPath != "" {
		var err error
		csv, err = os.OpenFile(*csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer csv.Close()
	}

	var jsonReports []bench.ReportJSON
	for _, exp := range exps {
		if *queries > 0 {
			exp.Queries = *queries
		}
		start := time.Now()
		rep, err := bench.Run(exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.Name, err)
			os.Exit(1)
		}
		if *asJSON {
			jsonReports = append(jsonReports, rep.JSON())
			if csv != nil {
				if _, err := csv.WriteString(rep.CSV()); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			continue
		}
		fmt.Println(rep.Table())
		if *chart {
			fmt.Println(rep.Chart(*metric))
		}
		if ratio, err := rep.GeoMeanRatio("LinearScan", "I-Hilbert", true); err == nil {
			fmt.Printf("geo-mean speedup of I-Hilbert over LinearScan (sim): %.1fx\n", ratio)
		}
		fmt.Printf("experiment wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
		if csv != nil {
			if _, err := csv.WriteString(rep.CSV()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *asJSON {
		emitJSON(jsonReports)
	}
}

// runBenchJSON measures the deterministic simulated-page suites and writes
// their rows as one flat JSON map, the format -compare consumes as either
// side.
func runBenchJSON(path string) {
	rows, err := bench.Measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b, err := bench.MarshalIndent(rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCompare gates new benchmark rows against old ones, exiting 1 on any
// pages/op or simns/op regression beyond tol. Either file may be flat
// -bench-json output or the multi-section BENCH_BASELINE.json layout.
func runCompare(args []string, tol float64) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fieldbench -compare [-tolerance f] old.json new.json")
		os.Exit(2)
	}
	oldRows, oldSec, err := bench.LoadRows(args[0], "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	newRows, _, err := bench.LoadRows(args[1], "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	from := args[0]
	if oldSec != "" {
		from += "[" + oldSec + "]"
	}
	fails := bench.CompareRows(oldRows, newRows, tol)
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark regressions vs %s (tolerance %.1f%%):\n", from, 100*tol)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Printf("no simulated-disk regressions vs %s across %d rows (tolerance %.1f%%)\n",
		from, len(oldRows), 100*tol)
}

// emitJSON writes v as indented JSON on stdout, exiting non-zero on a
// marshalling failure so scripts never mistake an error for output.
func emitJSON(v any) {
	b, err := bench.MarshalIndent(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}
