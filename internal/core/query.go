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
	return e.query(ctx, q, false, e.workers)
}

// MeasureContext implements Engine: QueryContext into the measure sink.
func (e *engine) MeasureContext(ctx context.Context, q geom.Interval) (*Result, error) {
	return e.query(ctx, q, true, e.workers)
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
// is set and into the Result's geometry otherwise, on at most workers cores.
func (e *engine) query(ctx context.Context, q geom.Interval, measure bool, workers int) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	tb, start := e.startQuery(e.label, obs.KindValue, q.Lo, q.Hi)
	st := e.pinState()
	res, err := e.queryAt(st, ctx, tb, q, measure, workers)
	e.unpin(st)
	e.endQuery(tb, start, err)
	return res, err
}

// queryAt is the value query against one pinned state, on a query context of
// its own: cold-start accounting with within-query page reuse (the paper's
// warm-OS-cache setting) no matter what runs concurrently. It counts as
// executing while it runs, and fans out on at most workers cores — those the
// other executing queries leave idle. The caller must hold a pin at st.epoch
// for the duration of the call.
func (e *engine) queryAt(st *state, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval, measure bool, workers int) (*Result, error) {
	executing.Add(1)
	defer executing.Add(-1)
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Recycle()
	qc.AttachTrace(tb)
	if e.tileSide != 0 {
		return e.queryTiles(st, ctx, qc, q, measure, workers)
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
		if err := e.refine(ctx, qc, p, pr, res, measure, workers); err != nil {
			return nil, err
		}
		qc.EndSpan()
	}
	res.IO = qc.Stats()
	e.recordIO(pr.filter, pr.sidecarReads, res.IO)
	return res, nil
}

// refine fetches the candidates into res — its geometry, or with measure only
// its measure: in order on qc, or — where fanout grants more than one worker
// and the page runs are more than one — in contiguous blocks of runs, one per
// worker, balanced by page count. Each block scans on a fork of qc into its
// worker's stream, and the blocks fold back in block order, which is run
// order: the sequential path's fold, so Regions, Area, MatchedCellArea and
// Stats are all byte-identical to it. Merged runs are
// never adjacent, so a block's fork charges its runs as qc would have, and
// Merge accounts the blocks as if they ran one after another.
func (e *engine) refine(ctx context.Context, qc *storage.QueryCtx, p *partition, pr *probe, res *Result, measure bool, workers int) error {
	fb := getFanBuf()
	defer putFanBuf(fb)
	if w := fanout(workers, len(pr.runs)); w > 1 {
		if fb.items = cutBlocks(fb.items, pr.runs, w); len(fb.items) > 2 {
			return e.refineBlocks(ctx, qc, p, pr, res, measure, fb)
		}
	}
	fb.size(1, 1, res.Query, measure)
	s := fb.streams[0]
	if p.byPos {
		s.reserve(len(pr.pos))
	}
	n, err := p.fetch(ctx, qc, pr, s)
	res.CellsFetched += n
	if err != nil {
		return err
	}
	fb.parts[0] = s.since(streamMark{})
	gather(res, fb.parts)
	return nil
}

// refineBlocks is refine's parallel path over the blocks whose bounds fb
// holds.
func (e *engine) refineBlocks(ctx context.Context, qc *storage.QueryCtx, p *partition, pr *probe, res *Result, measure bool, fb *fanBuf) error {
	blocks := len(fb.items) - 1
	fb.size(blocks, blocks, res.Query, measure)
	fb.ctx, fb.heap, fb.runs = ctx, p.heap, pr.runs
	// A block is sized for the records its pages hold on average, so that
	// filling its stream allocates once.
	fb.perPage = (p.heap.Count() + p.heap.NumPages() - 1) / p.heap.NumPages()
	err := e.scatter(ctx, qc, blocks, blocks, fb.block)
	if err != nil {
		return err
	}
	for _, c := range fb.counts {
		res.CellsFetched += c[0]
	}
	gather(res, fb.parts)
	return nil
}
