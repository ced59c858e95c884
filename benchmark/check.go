package main

import (
	"fmt"
	"math"
	"sort"

	"fielddb/internal/bench"
)

// baselineRows names, per workload, the rows of BENCH_BASELINE.json whose
// mean the set-up's warm-up rotation must reproduce. The three 256²
// workloads warm up with the same I-Hilbert rotation.
func baselineRows(workload string, sz sizing) []string {
	var rows []string
	for _, sel := range selectivities {
		if workload == "tiled-stored" {
			rows = append(rows, fmt.Sprintf("Tiled/Tiled-LinearScan/packed/side=%d/sel=%.2f", sz.tiledSide, sel))
		} else {
			rows = append(rows, fmt.Sprintf("I-Hilbert/sel=%.2f", sel))
		}
	}
	return rows
}

// crossCheck compares the warm-up rotation's pages and simulated disk time
// per query with the newest section of BENCH_BASELINE.json, the file `make
// bench-compare` gates on, so the two cannot silently drift apart. It reads
// the file and never writes it.
func crossCheck(cfg config, out *outcome) error {
	rows, section, err := bench.LoadRows("BENCH_BASELINE.json", "")
	if err != nil {
		return err
	}
	var pages, simMs float64
	names := baselineRows(cfg.workload, cfg.sizing())
	for _, name := range names {
		row, ok := rows[name]
		if !ok {
			fmt.Printf("   baseline cross-check skipped: BENCH_BASELINE.json[%s] has no row %q\n", section, name)
			return nil
		}
		pages += row.PagesOp / float64(len(names))
		simMs += row.SimNsOp / 1e6 / float64(len(names))
	}
	if !same(out.warmPages, pages) || !same(out.warmSimMs, simMs) {
		return fmt.Errorf("%s warm-up rotation: %.4f pages and %.4f simulated ms per query, BENCH_BASELINE.json[%s] says %.4f and %.4f",
			cfg.workload, out.warmPages, out.warmSimMs, section, pages, simMs)
	}
	fmt.Printf("   baseline cross-check ok: %.2f pages, %.3f simulated ms per query = BENCH_BASELINE.json[%s]\n", pages, simMs, section)
	return nil
}

func same(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// repeatRuns runs the end-to-end pass of every named workload n times and
// prints, per metric and workload, every value, the largest relative
// difference between two runs and the bound. It returns the exit code: 1
// when a difference exceeds its bound or an answer was wrong.
func repeatRuns(base config, names []string, n int) int {
	code := 0
	for _, name := range names {
		cfg := base
		cfg.workload = name
		runs := make([]map[string]float64, n)
		for i := range runs {
			out, err := runOne(cfg)
			if err != nil {
				fatal(err)
			}
			if out.failed > 0 {
				report(cfg, out)
				code = 1
			}
			runs[i] = out.metrics
		}
		fmt.Printf("== %s  %d runs of the end-to-end pass, seed %d\n", name, n, cfg.seed)
		for _, m := range endToEnd {
			vals := make([]float64, n)
			for i, r := range runs {
				vals[i] = r[m.Name]
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			diff := ratio(sorted[n-1]-sorted[0], sorted[0])
			verdict := "ok"
			if diff > m.Bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("   %-24s %v %s  diff %.2f%%  bound %.0f%%  %s\n", m.Name, vals, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
