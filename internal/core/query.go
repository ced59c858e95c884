package core

import (
	"context"

	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// This file is the value query as every store answers it — pin, run one of the
// two read pipelines against the pinned state, unpin — and the pipeline of a
// one-partition store: candidates → fetch → refine, straight into the Result.
// A tiled store's prune → scatter → gather is in tiled.go.

// Stats implements Index: the partitions' stats at the handle's state, summed.
func (e *engine) Stats() IndexStats {
	st := e.cur()
	s := IndexStats{Method: e.Method(), Cells: e.cells}
	for i, p := range e.parts {
		ps := p.statsAt(st.parts[i])
		s.CellPages += ps.CellPages
		s.IndexPages += ps.IndexPages
		s.SidecarPages += ps.SidecarPages
		s.Groups += ps.Groups
		s.TreeHeight = max(s.TreeHeight, ps.TreeHeight)
	}
	return s
}

// Query implements Index: Step 1 (filter) asks the method for candidates —
// survivors of a sidecar pass, the cells of a per-cell tree search, or the
// page runs of the subfields a subfield tree selected, merged so shared
// boundary pages are read once; Step 2 (estimation) fetches them and computes
// the exact answer regions.
func (e *engine) Query(q geom.Interval) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext implements Engine: ctx is polled inside the filter pass,
// before each page run or tile (each work item, on the parallel path) and at
// the fetch loops' strides, so a canceled query returns ctx's error
// mid-pipeline without leaking workers (the pool always joins).
func (e *engine) QueryContext(ctx context.Context, q geom.Interval) (*Result, error) {
	return e.query(ctx, q, false)
}

// MeasureContext implements Engine: QueryContext into the measure sink.
func (e *engine) MeasureContext(ctx context.Context, q geom.Interval) (*Result, error) {
	return e.query(ctx, q, true)
}

// measureKey is the key of the context value WithMeasure sets.
type measureKey struct{}

// WithMeasure marks ctx as asking for no answer geometry: the facade's range,
// above, below and batch queries under it refine into the measure sink. It is
// how the serving tier asks for a measure through any Querier — one that wraps
// another, to trace its calls say, forwards the context of each value query it
// wraps, and knows nothing of methods it does not override.
func WithMeasure(ctx context.Context) context.Context {
	return context.WithValue(ctx, measureKey{}, true)
}

// Measuring reports whether ctx came through WithMeasure.
func Measuring(ctx context.Context) bool { return ctx.Value(measureKey{}) != nil }

// query is the solo value query, refining into the measure sink when measure
// is set and into the Result's geometry otherwise.
func (e *engine) query(ctx context.Context, q geom.Interval, measure bool) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	tb, start := e.startQuery(e.label, obs.KindValue, q.Lo, q.Hi)
	st := e.pinState()
	res, err := e.queryAt(st, ctx, tb, q, measure)
	e.unpin(st)
	e.endQuery(tb, start, err)
	return res, err
}

// queryAt is the value query against one pinned state, on a query context of
// its own: cold-start accounting with within-query page reuse (the paper's
// warm-OS-cache setting) no matter what runs concurrently. The caller must
// hold a pin at st.epoch for the duration of the call.
func (e *engine) queryAt(st *state, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval, measure bool) (*Result, error) {
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	if e.tileSide != 0 {
		return e.queryTiles(st, ctx, qc, q, measure)
	}
	p := e.parts[0]
	pr := getProbe()
	defer putProbe(pr)
	pr.reset(ctx, qc, q, true)
	if err := p.candidates(st.parts[0], pr); err != nil {
		return nil, err
	}
	res := &Result{Query: q, CandidateGroups: pr.groups, CellsFetched: pr.fetched}
	// A run-based filter that selected nothing ends the query there: no
	// refinement span, filter-only I/O.
	if p.byPos || len(pr.runs) > 0 {
		qc.BeginSpan(obs.PhaseRefine)
		if err := e.refine(ctx, qc, p, pr, res, measure); err != nil {
			return nil, err
		}
		qc.EndSpan()
	}
	res.IO = qc.Stats()
	e.recordIO(pr.filter, pr.sidecarReads, res.IO)
	return res, nil
}

// refine fetches the candidates into res — its geometry, or with measure only
// its measure: in order on qc, or — with SetWorkers > 1 and more than one page
// run — whole runs scattered on the worker pool.
func (e *engine) refine(ctx context.Context, qc *storage.QueryCtx, p *partition, pr *probe, res *Result, measure bool) error {
	workers := e.fanout(len(pr.runs))
	if workers == 1 {
		n, err := p.fetch(ctx, qc, pr, &resultSink{res: res, measure: measure})
		res.CellsFetched += n
		return err
	}
	parts := make([]partial, len(pr.runs))
	fetched := make([]int, len(pr.runs))
	// A run is sized for the records its pages hold on average: most runs are a
	// page or two, and a partial that doubles its way there costs more
	// allocations than the cells it ends up holding.
	perPage := (p.heap.Count() + p.heap.NumPages() - 1) / p.heap.NumPages()
	err := e.scatter(ctx, qc, workers, len(pr.runs), func(i int, child *storage.QueryCtx) (err error) {
		parts[i].q, parts[i].measure = res.Query, measure
		parts[i].reserve((pr.runs[i].last - pr.runs[i].first + 1) * perPage)
		fetched[i], err = scanRuns(ctx, child, p.heap, pr.runs[i:i+1], res.Query, &parts[i])
		return err
	})
	if err != nil {
		return err
	}
	// The runs fold back in run order through the fold the sequential path
	// performs cell by cell — so Regions, Area, MatchedCellArea and Stats are
	// all byte-identical to it.
	for _, n := range fetched {
		res.CellsFetched += n
	}
	gather(res, parts, false)
	return nil
}
