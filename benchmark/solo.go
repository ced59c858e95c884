package main

import (
	"context"
	"time"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/grid"
)

// liveState is a freshly built in-memory database over the fixture terrain:
// what solo-hilbert, serve-closed and live-mixed all start from.
type liveState struct {
	f  *grid.DEM
	db *fielddb.DB
	// warmPages and warmSimMs are the per-query means of the warm-up
	// rotation, which is the rotation BENCH_BASELINE.json records.
	warmPages, warmSimMs float64
}

func (s *liveState) Close() error {
	if s == nil || s.db == nil {
		return nil
	}
	return s.db.Close()
}

// openLive is the timed set-up of the 256² workloads: generate the terrain,
// build the index, run the fixture rotation once so caches are full and lazy
// state exists before anything is measured.
func openLive(sz sizing, opts fielddb.Options) (*liveState, error) {
	f, err := bench.FixtureTerrain(sz.side, 0)
	if err != nil {
		return nil, err
	}
	db, err := fielddb.Open(f, opts)
	if err != nil {
		return nil, err
	}
	s := &liveState{f: f, db: db}
	s.warmPages, s.warmSimMs, err = warmUp(db, fixtureRotation(f.ValueRange(), sz.perSel))
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// warmUp runs rot once and returns its mean pages and simulated disk
// milliseconds per query.
func warmUp(q valueQuerier, rot []fielddb.Interval) (pages, simMs float64, err error) {
	ctx := context.Background()
	for _, iv := range rot {
		res, err := q.ValueQueryContext(ctx, iv.Lo, iv.Hi)
		if err != nil {
			return 0, 0, err
		}
		pages += float64(res.IO.Reads)
		simMs += float64(res.IO.SimElapsed) / float64(time.Millisecond)
	}
	n := float64(len(rot))
	return pages / n, simMs / n, nil
}

// setupMetrics fills the metrics a set-up leaves behind.
func setupMetrics(out *outcome, ss setupStats, fileBytes int64, cells int) {
	out.metrics["setup_s"] = ss.seconds
	out.notef("set-up as measured: %.4f s", ss.rawSeconds)
	out.metrics["heap_after_setup_mb"] = ss.heapMiB
	out.metrics["index_bytes_per_cell"] = float64(fileBytes) / float64(cells)
}

// calEvery is how many 256² queries (4–6 ms each) run between two kernel
// runs (4 ms): one part calibration to ten parts work.
const calEvery = 8

// soloOptions is the library default with the method spelled out: in
// memory, the facade's 65 536-page pool (the index is about 2 000 pages, so
// everything fits in cache), sequential refinement.
var soloOptions = fielddb.Options{Method: fielddb.IHilbert}

// runSolo is the paper's Q2 through the library surface: one goroutine,
// closed loop, full answer geometry.
func runSolo(cfg config) (*outcome, error) {
	sz := cfg.sizing()
	out := newOutcome()
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	st, ss, err := timeSetups(setups, func() (*liveState, error) { return openLive(sz, soloOptions) })
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out.warmPages, out.warmSimMs = st.warmPages, st.warmSimMs

	rot := queryRotation(st.f.ValueRange(), sz.perSel, cfg.seed)
	cells := newOracle(st.f)
	exp := cells.answers(rot)

	if !cfg.trace {
		size, err := indexFileBytes(st.db, cfg.outDir)
		if err != nil {
			return nil, err
		}
		setupMetrics(out, ss, size, st.f.NumCells())
		cal := &calibration{every: calEvery}
		ps := queryPass(st.db, rot, exp, nil, cal, out, wholeRotations(cfg.passLength(1)))
		timing(out, ps.lat, ps.elapsed, cal)
		ps.costs(out)
		return out, nil
	}

	before := st.db.Metrics()
	tr := newTracing()
	ref, traced := alternate(st.db, rot, exp, tr, out, cfg.passLength(0.75))
	after := st.db.Metrics()

	sum := tr.rec.summarize()
	spanRows(out, sum, len(traced.lat))
	overheadRows(out, sum, &ref, &traced)
	ref.add(traced)
	engineRows(out, &ref, before.Engine, after.Engine, 1)
	poolRows(out, before.ValuePool, after.ValuePool)
	if err := directRows(out, cfg, st.f, st.db, rot, exp, cells); err != nil {
		return nil, err
	}
	return out, finishTrace(out, cfg, tr, sum)
}
