package core

import (
	"context"
	"fmt"

	"fielddb/internal/approx"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// summaryPages is how many dedicated pages hold a field summary: the encoded
// polynomial segments of internal/approx fitted to the cumulative interval
// distributions. Four pages bound every approximate aggregate answer to at
// most four physical reads at any selectivity while leaving room for ~400
// segments at the default page size — far past the point of diminishing
// returns on the paper's fields.
const summaryPages = 4

// AggregateResult is the outcome of one aggregate query over a value
// interval: how many cells match and how much planar area they cover,
// either approximately with a certified error bound or exactly through the
// regular filter + refinement pipeline.
type AggregateResult struct {
	// Query is the value interval that was asked.
	Query geom.Interval
	// MaxErr is the fraction tolerance the caller asked for.
	MaxErr float64
	// Count estimates the number of cells whose interval intersects the
	// query; the true count differs by at most CountBound (0 when exact).
	Count      float64
	CountBound float64
	// Area estimates the total planar area of the matching cells; the true
	// area differs by at most AreaBound (0 when exact).
	Area      float64
	AreaBound float64
	// Fraction is Area over the field's total area, the selectivity the
	// tolerance is measured against; FractionBound is its certified error.
	Fraction      float64
	FractionBound float64
	// TotalCells and TotalArea are the field-wide denominators, exact values
	// carried by the summary header and by the store itself.
	TotalCells float64
	TotalArea  float64
	// Approx reports whether the answer came from the summary; Fallback
	// reports that the summary's bound exceeded the tolerance and the exact
	// pipeline ran instead (its page cost is included in IO).
	Approx   bool
	Fallback bool
	// IO is the page-access activity of this query, including the simulated
	// disk time.
	IO storage.Stats
}

// buildSummary fits and persists the field summary for a freshly built
// index: the four cumulative distributions over ivs (cell counts and areas)
// are fitted into at most summaryPages worth of segments and written to a
// contiguous page run right after the index pages.
func buildSummary(pager *storage.Pager, ivs []geom.Interval, areas []float64) (storage.PageID, int, error) {
	ps := pager.PageSize()
	sum, err := approx.Build(ivs, areas, summaryPages*ps)
	if err != nil {
		return 0, 0, err
	}
	return writeSummary(pager, sum.Encode())
}

// writeSummary writes an encoded summary to summaryPages fresh pages. The
// full run is always allocated — even when the blob is shorter — so a later
// refit under the same budget can never outgrow its pages.
func writeSummary(pager *storage.Pager, blob []byte) (storage.PageID, int, error) {
	ps := pager.PageSize()
	if len(blob) > summaryPages*ps {
		return 0, 0, fmt.Errorf("core: summary blob %d bytes exceeds %d pages", len(blob), summaryPages)
	}
	var first storage.PageID
	page := make([]byte, ps)
	for i := 0; i < summaryPages; i++ {
		id, err := pager.Alloc()
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			first = id
		} else if id != first+storage.PageID(i) {
			return 0, 0, fmt.Errorf("core: summary pages not contiguous")
		}
		for j := range page {
			page[j] = 0
		}
		if off := i * ps; off < len(blob) {
			copy(page, blob[off:])
		}
		if err := pager.WritePage(id, page); err != nil {
			return 0, 0, err
		}
	}
	return first, summaryPages, nil
}

// readSummary reads the summary page run through qc into one contiguous
// buffer. The encoded layout is self-describing (each function's segment
// range is bounded by its header descriptor), so trailing page padding is
// harmless.
func readSummary(qc *storage.QueryCtx, first storage.PageID, pages int) ([]byte, error) {
	buf := make([]byte, 0, pages*qc.PageSize())
	err := qc.ReadRun(first, first+storage.PageID(pages-1), func(_ storage.PageID, page []byte) bool {
		buf = append(buf, page...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// recordAggregate folds one answered aggregate query into the metrics
// registry.
func (o *observed) recordAggregate(fallback bool) {
	o.ob.Metrics.RecordAggregate(fallback)
}

// estimateToResult packages a summary evaluation as an AggregateResult.
func estimateToResult(q geom.Interval, maxErr float64, est approx.Estimate) *AggregateResult {
	res := &AggregateResult{
		Query:      q,
		MaxErr:     maxErr,
		Count:      est.Count,
		CountBound: est.CountBound,
		Area:       est.Area,
		AreaBound:  est.AreaBound,
		TotalCells: est.N,
		TotalArea:  est.TotalArea,
		Approx:     true,
	}
	res.Fraction, res.FractionBound = est.Fraction()
	return res
}

// exactToResult packages an exact pipeline run as an AggregateResult over a
// field of totalCells cells covering totalArea — the store's own exact sums,
// or the summary header's where a summary was probed.
func exactToResult(q geom.Interval, maxErr float64, exact *Result, totalCells int, totalArea float64) *AggregateResult {
	res := &AggregateResult{
		Query:      q,
		MaxErr:     maxErr,
		Count:      float64(exact.CellsMatched),
		Area:       exact.MatchedCellArea,
		TotalCells: float64(totalCells),
		TotalArea:  totalArea,
		IO:         exact.IO,
	}
	if totalArea > 0 {
		res.Fraction = res.Area / totalArea
	}
	return res
}

// AggregateContext implements Engine. The answer is composed in three
// escalating stages, all against one pinned state and under one trace:
//
//  1. Composition — when every partition is either disjoint from the query or
//     fully covered by it, the partitions' own summaries (cell count, total
//     area) compose the exact answer with ZERO page reads: a covered
//     partition's value range lies inside the query, so every one of its cells
//     matches. Value ranges only ever widen under updates, so the test stays a
//     sound (if conservative) exactness certificate across epochs.
//  2. Field summary — otherwise the summary pages answer within a certified
//     bound, at most summaryPages physical reads; on a snapshot they are read
//     as they were at the pin (update batches version them copy-on-write like
//     any data page). A store without summary pages — an untiled scan or
//     per-cell tree, or a file that declares none — skips the stage.
//  3. Exact — when the bound exceeds maxErr, the value-query pipeline runs
//     into the measure sink: an aggregate needs counts and areas, never
//     geometry.
func (e *engine) AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := e.startQuery(e.label, obs.KindAggregate, q.Lo, q.Hi)
	st := e.pinState()
	res, err := e.aggregateAt(st, ctx, tb, q, maxErr)
	e.unpin(st)
	e.endQuery(tb, start, err)
	return res, err
}

// aggregateAt answers one aggregate query against a pinned state. The caller
// must hold a pin at st.epoch for the duration of the call.
func (e *engine) aggregateAt(st *state, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	count, area, composed := 0.0, 0.0, true
	for pi, vr := range st.vr {
		if !vr.Intersects(q) {
			continue
		}
		if composed = q.Lo <= vr.Lo && vr.Hi <= q.Hi; !composed {
			break
		}
		count += float64(e.parts[pi].cells)
		area += e.parts[pi].area
	}
	if !composed && e.sumPages == 0 {
		ex, err := e.queryAt(st, ctx, tb, q, true, e.workers)
		if err != nil {
			return nil, err
		}
		res := exactToResult(q, maxErr, ex, e.cells, e.area)
		res.Fallback = true
		e.recordAggregate(true)
		return res, nil
	}
	// The summary stage, on a context of its own: zero reads when composition
	// answered, at most summaryPages sequential ones otherwise.
	qc := beginQueryAt(e.pager, st.epoch)
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseSummary)
	if composed {
		qc.EndSpan()
		res := &AggregateResult{
			Query:      q,
			MaxErr:     maxErr,
			Count:      count,
			Area:       area,
			TotalCells: float64(e.cells),
			TotalArea:  e.area,
			Approx:     true,
			IO:         qc.Stats(),
		}
		if e.area > 0 {
			res.Fraction = area / e.area
		}
		e.recordIO(res.IO, 0, res.IO)
		e.recordAggregate(false)
		return res, nil
	}
	buf, err := readSummary(qc, e.sumFirst, e.sumPages)
	if err != nil {
		qc.Release()
		return nil, err
	}
	est, err := approx.EvalEncoded(buf, q.Lo, q.Hi)
	qc.EndSpan()
	sumIO := qc.Stats()
	if err != nil {
		return nil, err
	}
	// Within maxErr the estimate is the answer; otherwise the exact pipeline
	// runs and the answer becomes exact. The summary probe stays in the
	// query's accounting either way — it was a real cost — and the summary
	// header still supplies the field-wide denominators.
	res := estimateToResult(q, maxErr, est)
	if _, fb := est.Fraction(); fb <= maxErr {
		res.IO = sumIO
		e.recordIO(res.IO, 0, res.IO)
		e.recordAggregate(false)
		return res, nil
	}
	ex, err := e.queryAt(st, ctx, tb, q, true, e.workers)
	if err != nil {
		return nil, err
	}
	res = exactToResult(q, maxErr, ex, e.cells, est.TotalArea)
	res.TotalCells = est.N
	res.Fallback = true
	res.IO = sumIO.Add(ex.IO)
	e.recordIO(sumIO, 0, sumIO)
	e.recordAggregate(true)
	return res, nil
}

// maintainSummary keeps the field summary truthful across an update batch
// that moved the intervals of cells cells covering area, staging the new
// summary page images into the batch's copy-on-write overlay set (so the
// refreshed summary commits — and versions — with the same epoch as the data
// it describes, and pinned snapshots keep reading their own epoch's pages).
//
// Two maintenance modes:
//
//   - refit — an untiled index built in memory carries the per-cell areas from
//     construction (cell vertices never move under value updates, so they
//     stay the correct fit weights); the summary is refitted from the
//     updated interval column under the original page budget, restoring
//     build-quality bounds.
//   - widen — a file-opened index has intervals (recovered from its heap
//     records) but no areas, and a tiled store keeps neither field-wide;
//     instead the header's widening slack grows by the batch's touched-cell
//     count and area. Each touched cell shifts each cumulative distribution by
//     at most one count and its own area, so the stale segments plus the
//     accumulated slack remain a certified bound.
func (s *store) maintainSummary(st *overlayStage, cells int, area float64) error {
	if s.sumPages == 0 || cells == 0 {
		return nil
	}
	if s.areas == nil {
		page, err := st.page(s.sumFirst)
		if err != nil {
			return err
		}
		approx.PatchWiden(page, float64(cells), area)
		return nil
	}
	ps := s.pager.PageSize()
	sum, err := approx.Build(s.parts[0].ivs, s.areas, s.sumPages*ps)
	if err != nil {
		return err
	}
	blob := sum.Encode()
	if len(blob) > s.sumPages*ps {
		return fmt.Errorf("core: refitted summary %d bytes exceeds %d pages", len(blob), s.sumPages)
	}
	for i := 0; i < s.sumPages; i++ {
		page := make([]byte, ps)
		if off := i * ps; off < len(blob) {
			copy(page, blob[off:])
		}
		st.pages[s.sumFirst+storage.PageID(i)] = page
	}
	return nil
}
