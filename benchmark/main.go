// Command benchmark is the repository's benchmark: four workloads over the
// fielddb library and its HTTP tier, each run untraced for the end-to-end
// metrics and traced for the per-layer metrics, every answer checked against
// a brute-force oracle. README.md in this directory explains the metrics and
// which layer should move which; BENCHMARK.json at the repository root
// declares them for the driver.
//
//	go run ./benchmark -seed 1                          # everything, both passes
//	go run ./benchmark -workload live-mixed -seed 7     # one workload
//	go run ./benchmark -workload solo-hilbert -trace 1  # its traced pass only
//	go run ./benchmark -repeat 2                        # repeatability check
//
// The driver's form is
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which runs one pass of one workload and prints one JSON object as the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir is where trace files and temporary index files go, relative to the
// checkout root the command runs from; benchmark/.gitignore keeps it
// untracked.
var outDir = filepath.Join("benchmark", "out")

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of one measured pass")
		trace    = flag.String("trace", "", "0: end-to-end pass, 1: traced per-layer pass (default: both)")
		smoke    = flag.Bool("smoke", false, "1/16-area terrains and a single set-up, for a quick check of the harness")
		tiled    = flag.Int("tiled-side", 0, "edge of tiled-stored's terrain in cells, a power of two (default 512; 1024 is the size BENCH_BASELINE.json gates)")
		repeat   = flag.Int("repeat", 0, "run the end-to-end set this many times and compare the runs against the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as this program declares it and exit")
	)
	flag.Parse()
	if *spec {
		data, _ := json.MarshalIndent(declared(), "", "  ")
		fmt.Println(string(data))
		return
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("-workload %q: unknown workload", *workload))
	}
	base := config{seed: *seed, seconds: *seconds, smoke: *smoke, tiled: *tiled, outDir: outDir}
	fmt.Printf("env.nproc=%d env.gomaxprocs=%d seed=%d seconds=%g smoke=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds, *smoke)

	if *repeat > 0 {
		os.Exit(repeatRuns(base, names, *repeat))
	}

	// The driver's form: one workload, one pass, one JSON line.
	if *workload != "" && *trace != "" {
		cfg := base
		cfg.workload, cfg.trace = *workload, *trace == "1"
		out, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		report(cfg, out)
		line, err := resultLine(cfg, out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		if out.failed > 0 {
			os.Exit(1)
		}
		return
	}

	failed := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if *trace != "" && traced != (*trace == "1") {
				continue
			}
			cfg := base
			cfg.workload, cfg.trace = name, traced
			out, err := runOne(cfg)
			if err != nil {
				fatal(err)
			}
			report(cfg, out)
			failed += out.failed
			if !traced && !cfg.smoke {
				if err := crossCheck(cfg, out); err != nil {
					fmt.Println("baseline cross-check FAILED:", err)
					failed++
				}
			}
		}
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d failures\n", failed)
		os.Exit(1)
	}
	fmt.Println("ok: every answer matched the oracle")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne dispatches to the workload.
func runOne(cfg config) (*outcome, error) {
	for _, w := range workloads {
		if w.Name == cfg.workload {
			out, err := w.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.workload, err)
			}
			if cfg.trace {
				out.metrics["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// metricsFor lists the metrics a pass must report.
func metricsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints every metric of the pass by name with its unit.
func report(cfg config, out *outcome) {
	pass := "end-to-end"
	if cfg.trace {
		pass = "per-layer"
	}
	fmt.Printf("== %s  %s pass  seed %d  attempted %d  failed %d\n", cfg.workload, pass, cfg.seed, out.attempted, out.failed)
	for _, n := range out.notes {
		fmt.Println("   #", n)
	}
	for _, e := range out.errs {
		fmt.Println("   ! ", e)
	}
	for _, m := range metricsFor(cfg.trace) {
		fmt.Printf("   %-44s %14.4f %s\n", m.Name, out.metrics[m.Name], m.Unit)
	}
}

// resultLine is the driver's JSON object: exactly the declared metrics of
// the pass, each with its unit.
func resultLine(cfg config, out *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, m := range metricsFor(cfg.trace) {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			missing = append(missing, m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("%s reported no %v", cfg.workload, missing)
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	return string(data), err
}
