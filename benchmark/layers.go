package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fielddb"
	"fielddb/internal/approx"
	"fielddb/internal/band"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/serve"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// Per-layer rows. Two kinds: span rows, folded from the traced pass and from
// counters the program already exports, and direct-call rows, where the
// benchmark times a layer's public function on the workload's own data.

// spanRows fills the rows that are a phase's self time per traced query.
// A phase the workload's engine never enters stays 0.
func spanRows(out *outcome, sum traceSummary, tracedQueries int) {
	for row, phase := range map[string]string{
		"rstar.filter_us_per_query":           "filter",
		"storage.sidecar_filter_us_per_query": "sidecar-filter",
		"core.refine_us_per_query":            "refine",
		"core.tile_prune_us_per_query":        "tile-prune",
		"core.tile_scan_us_per_query":         "tile-scan",
		"core.unspanned_us_per_query":         "engine.value",
	} {
		out.metrics[row] = sum.perOpUs(phase, tracedQueries)
	}
}

// engineRows fills the rows that come from query results and from the delta
// of the metrics registry across the queries of ps. workers is the
// refinement pool size the workload configured.
func engineRows(out *outcome, ps *passStats, before, after fielddb.MetricsSnapshot, workers int) {
	n := ps.queries()
	m := out.metrics
	m["rstar.filter_pages_per_query"] = ratio(float64(after.IndexPagesRead-before.IndexPagesRead), n)
	m["rstar.candidates_per_query"] = ratio(float64(ps.candidates), n)
	m["storage.sidecar_pages_per_query"] = ratio(float64(after.SidecarPagesRead-before.SidecarPagesRead), n)
	m["storage.cell_pages_per_query"] = ratio(float64(after.CellPagesRead-before.CellPagesRead), n)
	m["storage.seq_read_share"] = ratio(float64(ps.seqReads), float64(ps.pages))
	pruned := float64(after.TilesPruned - before.TilesPruned)
	m["core.tiles_pruned_share"] = ratio(pruned, pruned+float64(after.TilesScanned-before.TilesScanned))
	busy := float64(after.WorkerBusy - before.WorkerBusy)
	wall := float64(after.WorkerWall - before.WorkerWall)
	m["core.worker_concurrency"] = ratio(busy, wall)
	m["core.worker_busy_share"] = ratio(busy, wall*float64(workers))
	m["core.filter_precision"] = ratio(float64(ps.cellsMatched), float64(ps.cellsFetched))
	m["band.regions_per_query"] = ratio(float64(ps.regions), n)
}

// batchRows fills the admission-window rows from the registry delta.
func batchRows(out *outcome, before, after fielddb.MetricsSnapshot, valueQueries int) {
	batches := float64(after.Batches - before.Batches)
	members := float64(after.BatchQueries - before.BatchQueries)
	out.metrics["core.batch_size_mean"] = ratio(members, batches)
	out.metrics["core.batch_share"] = ratio(members, float64(valueQueries))
	out.metrics["core.coalesced_pages_saved_per_query"] =
		ratio(float64(after.CoalescedPagesSaved-before.CoalescedPagesSaved), float64(valueQueries))
}

// poolRows fills the buffer-pool hit ratio from the pool's shard counters.
func poolRows(out *outcome, before, after []storage.PoolShardStats) {
	var hits, misses int64
	for i := range after {
		hits += after[i].Hits
		misses += after[i].Misses
		if i < len(before) {
			hits -= before[i].Hits
			misses -= before[i].Misses
		}
	}
	out.metrics["storage.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
}

// overheadRows compares the traced pass with the untraced reference pass of
// the same run and reports the collector's activity during the reference.
func overheadRows(out *outcome, sum traceSummary, ref, traced *passStats) {
	refP50, _, _ := ref.lat.tail(95)
	trP50, _, _ := traced.lat.tail(95)
	out.metrics["obs.tracing_overhead_pct"] = 100 * (ratio(trP50, refP50) - 1)
	out.metrics["obs.spans_per_query"] = ratio(float64(sum.spans), float64(sum.ops))
	runtimeRows(out, ref.mem, len(ref.lat))
}

// runtimeRows fills the allocator and collector rows for ops operations.
func runtimeRows(out *outcome, mem memDelta, ops int) {
	out.metrics["go.gc_cycles_per_1k_ops"] = ratio(1000*float64(mem.gcCycles), float64(ops))
	out.metrics["go.gc_pause_ms_total"] = float64(mem.pauseNs) / 1e6
	out.metrics["go.bytes_per_query"] = ratio(float64(mem.bytes), float64(ops))
}

// finishTrace writes the span file and fails the run if any operation's
// spans do not add up.
func finishTrace(out *outcome, cfg config, tr *tracing, sum traceSummary) error {
	path, err := tr.rec.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	out.notef("%d operations, %d spans traced to %s", sum.ops, sum.spans, path)
	if sum.unbalanced > 0 {
		out.fail(fmt.Errorf("trace: %d of %d operations have self times that do not sum to the root span", sum.unbalanced, sum.ops))
	}
	return nil
}

// timeIt returns f's wall time in nanoseconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start))
}

// directRows times the layers' public functions on the workload's own
// field, index and query rotation; or holds the field's cell intervals and
// areas, exp its answers for rot. db may be nil (tiled-stored has dropped its
// builder by the time it measures); the rows that need it stay 0.
func directRows(out *outcome, cfg config, f fielddb.Field, db *fielddb.DB, rot []fielddb.Interval, exp []expected, or *oracle) error {
	m := out.metrics
	cells := float64(f.NumCells())

	// sfc + subfield: the linearization a partitioned build starts with.
	curve, err := sfc.NewHilbert(16, 2)
	if err != nil {
		return err
	}
	mapper, err := sfc.NewMapper(curve, f.Bounds())
	if err != nil {
		return err
	}
	var c field.Cell
	centers := make([]geom.Point, f.NumCells())
	for id := range centers {
		centers[id] = f.Cell(field.CellID(id), &c).Center()
	}
	var sink uint64
	m["sfc.index_ns_per_cell"] = timeIt(func() {
		for _, p := range centers {
			sink += mapper.Index(p)
		}
	}) / cells
	var refs []subfield.CellRef
	m["subfield.linearize_ms"] = timeIt(func() { refs, err = subfield.Linearize(f, curve) }) / 1e6
	if err != nil {
		return err
	}

	// subfield + approx: what an update batch on a partitioned index redoes
	// over the whole field (ROADMAP, write plane).
	var groups []subfield.Group
	m["subfield.greedy_ms"] = timeIt(func() { groups = subfield.BuildGreedy(refs, subfield.CostModel{}) }) / 1e6
	m["subfield.groups"] = float64(len(groups))
	ivs := make([]geom.Interval, len(refs))
	areas := make([]float64, len(refs))
	for i, r := range refs {
		ivs[i] = r.Interval
		areas[i] = or.area[r.ID]
	}
	var summary *approx.Summary
	m["approx.build_ms"] = timeIt(func() { summary, err = approx.Build(ivs, areas, 4*storage.DefaultPageSize) }) / 1e6
	if err != nil {
		return err
	}
	m["approx.summary_bytes"] = float64(summary.EncodedSize())

	// rstar: packing the group intervals into the value tree.
	entries := make([]rstar.Entry, len(groups))
	for i, g := range groups {
		iv := geom.EmptyInterval()
		for _, r := range refs[g.Start:g.End] {
			iv = iv.Union(r.Interval)
		}
		entries[i] = rstar.Entry{MBR: rstar.Interval1D(iv.Lo, iv.Hi), Data: uint64(i)}
	}
	m["rstar.bulkload_ms"] = timeIt(func() { _, err = rstar.BulkLoad(1, rstar.Params{}, entries, nil, 1) }) / 1e6
	if err != nil {
		return err
	}

	// band + field: refinement geometry, record decode and the column filter
	// on the cells the rotation's dearest query matches.
	q, most := rot[0], exp[0].cells
	for i, e := range exp {
		if e.cells > most {
			q, most = rot[i], e.cells
		}
	}
	var matched []field.Cell
	var recs [][]byte
	for id := range or.lo {
		if or.lo[id] <= q.Hi && q.Lo <= or.hi[id] {
			f.Cell(field.CellID(id), &c)
			matched = append(matched, field.Cell{
				ID: c.ID, Vertices: append([]geom.Point(nil), c.Vertices...), Values: append([]float64(nil), c.Values...),
			})
			recs = append(recs, field.AppendCell(nil, &c))
		}
	}
	if len(matched) > 0 && len(matched[0].Values) == 4 {
		n := float64(len(matched))
		mem0 := readMem()
		ns := timeIt(func() {
			for i := range matched {
				mc := &matched[i]
				sink += uint64(len(band.QuadBand(mc.Bounds(), mc.Values[0], mc.Values[1], mc.Values[2], mc.Values[3], q.Lo, q.Hi)))
			}
		})
		mem := readMem().since(mem0)
		m["band.quadband_ns_per_cell"] = ns / n
		m["band.allocs_per_cell"] = float64(mem.mallocs) / n
		m["band.bytes_per_cell"] = float64(mem.bytes) / n
		m["field.decode_ns_per_cell"] = timeIt(func() {
			for _, rec := range recs {
				if derr := field.DecodeCell(rec, &c); derr != nil {
					err = derr
				}
			}
		}) / n
		if err != nil {
			return err
		}
	}
	var hits []int32
	m["field.filter_ns_per_entry"] = timeIt(func() { hits = field.FilterIntervals(hits[:0], 0, or.lo, or.hi, q.Lo, q.Hi) }) / cells
	runtime.KeepAlive(sink)

	if err := storageRows(out, cfg, or.lo, or.hi); err != nil {
		return err
	}
	if db != nil {
		return stubRows(out, db, q)
	}
	return nil
}

// storageRows times the pager's run read, warm and cold, on a memory disk
// and on a file, and the sidecar column decode under both codecs.
func storageRows(out *outcome, cfg config, lo, hi []float64) error {
	m := out.metrics
	const pages = 1024
	page := make([]byte, storage.DefaultPageSize)
	fill := func(disk storage.Disk) (*storage.Pager, error) {
		pager := storage.NewPager(disk, storage.DefaultDiskModel, 2*pages)
		for i := 0; i < pages; i++ {
			id, err := pager.Alloc()
			if err != nil {
				return nil, err
			}
			page[0] = byte(i)
			if err := pager.WritePage(id, page); err != nil {
				return nil, err
			}
		}
		return pager, nil
	}
	readAll := func(p *storage.Pager) (float64, error) {
		var err error
		var sum int
		ns := timeIt(func() {
			err = p.ReadRun(0, pages-1, func(_ storage.PageID, pg []byte) bool { sum += int(pg[0]); return true })
		})
		return ns / pages, err
	}
	mem, err := fill(storage.NewMemDisk(storage.DefaultPageSize))
	if err != nil {
		return err
	}
	if _, err := readAll(mem); err != nil {
		return err
	}
	if m["storage.readrun_hot_ns_per_page"], err = readAll(mem); err != nil {
		return err
	}
	mem.DropCache()
	if m["storage.readrun_miss_ns_per_page_mem"], err = readAll(mem); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("readrun-%d.pages", os.Getpid()))
	defer os.Remove(path)
	disk, err := storage.OpenFileDisk(path, storage.DefaultPageSize)
	if err != nil {
		return err
	}
	file, err := fill(disk)
	if err != nil {
		disk.Close()
		return err
	}
	defer file.Close()
	file.DropCache()
	if m["storage.readrun_miss_ns_per_page_file"], err = readAll(file); err != nil {
		return err
	}

	for _, codec := range []string{storage.SidecarCodecRaw, storage.SidecarCodecPacked} {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		sc, err := storage.BuildIntervalSidecarWith(pager, lo, hi, codec)
		if err != nil {
			return err
		}
		scan := func() (float64, error) {
			var err error
			var n int
			ns := timeIt(func() {
				err = sc.ScanRange(pager, 0, len(lo), func(_ int, l, _ []float64) bool { n += len(l); return true })
			})
			return ns / float64(len(lo)), err
		}
		if _, err := scan(); err != nil {
			return err
		}
		if m["storage.column_decode_ns_per_entry_"+codec], err = scan(); err != nil {
			return err
		}
	}
	return nil
}

// stubQuerier answers every value query with one canned result: the serve
// layer alone, zero engine time.
type stubQuerier struct {
	fielddb.Querier
	res *fielddb.Result
}

func (s stubQuerier) ValueQueryContext(context.Context, float64, float64) (*fielddb.Result, error) {
	return s.res, nil
}

// discard is an in-memory http.ResponseWriter that counts bytes.
type discard struct {
	h     http.Header
	bytes int
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(int)     {}
func (d *discard) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// stubRows drives Server.Handler().ServeHTTP with a stub Querier for the
// three encodings of a range response.
func stubRows(out *outcome, db *fielddb.DB, q fielddb.Interval) error {
	res, err := db.ValueQueryContext(context.Background(), q.Lo, q.Hi)
	if err != nil {
		return err
	}
	srv := serve.New(map[string]*serve.Field{servedField: {Querier: stubQuerier{res: res}}}, serve.Config{})
	h := srv.Handler()
	drive := func(geometry, binary bool, rounds int) (us, allocs, bytes float64, err error) {
		path := fmt.Sprintf("/v1/fields/%s/range?lo=%g&hi=%g", servedField, q.Lo, q.Hi)
		if geometry {
			path += "&geometry=1"
		}
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		if binary {
			req.Header.Set("Accept", serve.WireMIME)
		}
		w := &discard{h: http.Header{}}
		h.ServeHTTP(w, req) // fill the codec pool
		w.bytes = 0
		mem0 := readMem()
		ns := timeIt(func() {
			for i := 0; i < rounds; i++ {
				h.ServeHTTP(w, req)
			}
		})
		mem := readMem().since(mem0)
		n := float64(rounds)
		return ns / 1e3 / n, float64(mem.mallocs) / n, float64(w.bytes) / n, nil
	}
	m := out.metrics
	if m["serve.stub_us_range"], m["serve.stub_allocs_range"], _, err = drive(false, false, 2000); err != nil {
		return err
	}
	if m["serve.stub_us_geometry_json"], _, m["serve.bytes_per_response_json"], err = drive(true, false, 20); err != nil {
		return err
	}
	if m["serve.stub_us_geometry_bin"], _, m["serve.bytes_per_response_bin"], err = drive(true, true, 20); err != nil {
		return err
	}
	return nil
}
