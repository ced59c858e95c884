package main

// The benchmark's declared surface: workloads, end-to-end metrics with their
// bounds, per-layer metrics. BENCHMARK.json at the repository root says the
// same thing for the driver; spec_test.go keeps the two identical.

// runSeconds is how long one measured pass lasts unless -seconds says
// otherwise; BENCHMARK.json's run_seconds.
const runSeconds = 12

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(config) (*outcome, error)
}

var workloads = []workloadSpec{
	{"solo-hilbert", "The paper's Q2 through the library: in-memory I-Hilbert that fits in cache, one closed-loop client, full geometry. Only R*-tree filter, page fetch, decode and band refinement work.", runSolo},
	{"serve-closed", "The product as served: default fieldserve stack on loopback HTTP, nproc closed-loop connections, zipf mix of range, geometry, point and aggregate. Adds routing, admission, batch window, encoders.", runServe},
	{"live-mixed", "Writes beside reads: an open-loop writer commits 16-sample update batches while a closed-loop reader runs the solo rotation. Only here do index maintenance, regrouping and epoch overlays work.", runLive},
	{"tiled-stored", "The scale-out read path: 512x512 terrain in 64-cell tiles, packed sidecars, saved and reopened with a pool an eighth of the file (larger than cache). Tile prune, worker scatter, file reads.", runTiled},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; on serve-closed a "query" is a request as the
// client sees it, on live-mixed it is the reader's query while the writer
// runs. Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression. The four wall-clock metrics
// are reported at a reference machine speed (calib.go) and still carry the
// widest bound the driver allows: this shared box has minutes-long slow
// spells that slow the engine more than any kernel tracks (README,
// Steadiness).
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_p95_ms", "ms", lower, 0.25},
	{"query_qps", "1/s", higher, 0.25},
	{"pages_per_query", "pages", lower, 0.02},
	{"simdisk_ms_per_query", "ms", lower, 0.02},
	{"allocs_per_query", "count", lower, 0.05},
	{"heap_after_setup_mb", "MiB", lower, 0.05},
	{"index_bytes_per_cell", "bytes", lower, 0.02},
}

// perLayer are the metrics of single layers, named layer.metric after the
// repository's packages. They have no bound. A layer that does no work on a
// workload reports 0 there, which is the prediction "no change" made
// visible. README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	// Demoted from end to end: these exist on one workload only, and the
	// driver wants every end-to-end metric from every workload.
	{"update_p50_ms", "ms", lower, 0},
	{"update_p90_ms", "ms", lower, 0},
	{"pages_written_per_update", "pages", lower, 0},
	{"failed_share", "ratio", lower, 0},

	// Span rows: serving tier.
	{"http.self_us_per_request", "us", lower, 0},
	{"serve.self_us_range", "us", lower, 0},
	{"serve.self_us_geometry_json", "us", lower, 0},
	{"serve.self_us_geometry_bin", "us", lower, 0},
	{"serve.self_us_point", "us", lower, 0},
	{"serve.self_us_aggregate", "us", lower, 0},
	{"serve.p50_ms_range", "ms", lower, 0},
	{"serve.p50_ms_geometry", "ms", lower, 0},
	{"serve.p50_ms_point", "ms", lower, 0},
	{"serve.p50_ms_aggregate", "ms", lower, 0},
	{"fielddb.facade_wait_us_per_query", "us", lower, 0},
	{"serve.shed_429", "count", lower, 0},
	{"serve.timeouts_504", "count", lower, 0},
	{"serve.open_p50_ms_r60", "ms", lower, 0},
	{"serve.open_p95_ms_r60", "ms", lower, 0},
	{"serve.open_p95_ms_r120", "ms", lower, 0},
	{"serve.open_lateness_ms", "ms", lower, 0},

	// Span rows: engine.
	{"rstar.filter_us_per_query", "us", lower, 0},
	{"rstar.filter_pages_per_query", "pages", lower, 0},
	{"rstar.candidates_per_query", "count", lower, 0},
	{"storage.sidecar_filter_us_per_query", "us", lower, 0},
	{"storage.sidecar_pages_per_query", "pages", lower, 0},
	{"core.refine_us_per_query", "us", lower, 0},
	{"storage.cell_pages_per_query", "pages", lower, 0},
	{"storage.seq_read_share", "ratio", higher, 0},
	{"core.tile_prune_us_per_query", "us", lower, 0},
	{"core.tile_scan_us_per_query", "us", lower, 0},
	{"core.unspanned_us_per_query", "us", lower, 0},
	{"core.tiles_pruned_share", "ratio", higher, 0},
	{"core.worker_concurrency", "ratio", higher, 0},
	{"core.worker_busy_share", "ratio", higher, 0},
	{"core.batch_size_mean", "count", higher, 0},
	{"core.coalesced_pages_saved_per_query", "pages", higher, 0},
	{"core.batch_share", "ratio", higher, 0},
	{"core.filter_precision", "ratio", higher, 0},
	{"band.regions_per_query", "count", lower, 0},
	{"storage.pool_hit_ratio", "ratio", higher, 0},

	// Span rows: write plane.
	{"core.update_patch_us", "us", lower, 0},
	{"core.update_maintain_us", "us", lower, 0},
	{"core.update_other_us", "us", lower, 0},
	{"core.update_cells_touched", "count", lower, 0},
	{"core.regroup_share", "ratio", lower, 0},
	{"storage.epochs_retired", "count", higher, 0},

	// Span rows: approximate tier, tracing itself, the Go runtime.
	{"approx.fallback_share", "ratio", lower, 0},
	{"approx.summary_pages_per_query", "pages", lower, 0},
	{"obs.tracing_overhead_pct", "%", lower, 0},
	{"obs.spans_per_query", "count", lower, 0},
	{"go.gc_cycles_per_1k_ops", "count", lower, 0},
	{"go.gc_pause_ms_total", "ms", lower, 0},
	{"go.bytes_per_query", "bytes", lower, 0},

	// Direct-call rows.
	{"sfc.index_ns_per_cell", "ns", lower, 0},
	{"subfield.linearize_ms", "ms", lower, 0},
	{"rstar.bulkload_ms", "ms", lower, 0},
	{"subfield.greedy_ms", "ms", lower, 0},
	{"subfield.groups", "count", lower, 0},
	{"approx.build_ms", "ms", lower, 0},
	{"approx.summary_bytes", "bytes", lower, 0},
	{"band.quadband_ns_per_cell", "ns", lower, 0},
	{"band.allocs_per_cell", "count", lower, 0},
	{"band.bytes_per_cell", "bytes", lower, 0},
	{"field.decode_ns_per_cell", "ns", lower, 0},
	{"field.filter_ns_per_entry", "ns", lower, 0},
	{"storage.readrun_hot_ns_per_page", "ns", lower, 0},
	{"storage.readrun_miss_ns_per_page_mem", "ns", lower, 0},
	{"storage.readrun_miss_ns_per_page_file", "ns", lower, 0},
	{"storage.column_decode_ns_per_entry_raw", "ns", lower, 0},
	{"storage.column_decode_ns_per_entry_packed", "ns", lower, 0},
	{"serve.stub_us_range", "us", lower, 0},
	{"serve.stub_us_geometry_json", "us", lower, 0},
	{"serve.stub_us_geometry_bin", "us", lower, 0},
	{"serve.stub_allocs_range", "count", lower, 0},
	{"serve.bytes_per_response_json", "bytes", lower, 0},
	{"serve.bytes_per_response_bin", "bytes", lower, 0},
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func declared() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
