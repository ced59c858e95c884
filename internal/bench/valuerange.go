package bench

import "fielddb/internal/core"

// Selectivities are the three query-selectivity regimes of the paper's
// evaluation (relative Qinterval widths): narrow queries where the filter
// step dominates, the mid range where I-Hilbert's run clustering pays off
// most, and wide queries that stress the refinement step's sequential
// throughput. BenchmarkValueRange (bench_test.go) and the checked-in
// BENCH_BASELINE.json are keyed to these values; changing them invalidates
// the recorded baseline.
var Selectivities = []float64{0.01, 0.05, 0.10}

// ValueRangeSpecs returns the index configurations of the value-range
// benchmark suite: the no-index baseline, the per-cell-interval baseline,
// and the paper's proposed method. I-All uses bulk loading here — the suite
// measures the query path, and tuple-by-tuple insertion only slows the
// one-time setup without changing the read-path behavior under test. Every
// spec builds a core.Engine; Build returns core.Index because the figure
// experiments also list the reference baselines, which are only that.
func ValueRangeSpecs() []IndexSpec {
	hilbert := buildSpec(string(core.MethodIHilbert), core.BuildOptions{Method: core.MethodIHilbert})
	hilbert.ParallelRefine = true
	return []IndexSpec{
		buildSpec(string(core.MethodLinearScan), core.BuildOptions{Method: core.MethodLinearScan}),
		buildSpec(string(core.MethodIAll), core.BuildOptions{Method: core.MethodIAll, BulkLoad: true}),
		hilbert,
	}
}
