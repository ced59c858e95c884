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
	// Both are 0 when the total area is unknown (a pre-summary file answered
	// exactly).
	Fraction      float64
	FractionBound float64
	// TotalCells and TotalArea are the field-wide denominators, exact values
	// carried by the summary header.
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

// AggregateQuerier is the optional capability of an index (or snapshot) that
// answers aggregate queries: approximately within a certified error bound
// when its field summary is tight enough, exactly otherwise. maxErr is the
// tolerated error on the matched-area fraction; +Inf accepts any certified
// bound (the serving tier's degraded mode), 0 and below are rejected by the
// facade before reaching the index.
type AggregateQuerier interface {
	AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error)
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

// addStats sums two per-query activity snapshots (the summary probe and the
// exact fallback pipeline run under one aggregate query).
func addStats(a, b storage.Stats) storage.Stats {
	return storage.Stats{
		Reads:      a.Reads + b.Reads,
		SeqReads:   a.SeqReads + b.SeqReads,
		RandReads:  a.RandReads + b.RandReads,
		Writes:     a.Writes + b.Writes,
		CacheHits:  a.CacheHits + b.CacheHits,
		SimElapsed: a.SimElapsed + b.SimElapsed,
	}
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

// exactToResult packages an exact pipeline run as an AggregateResult.
// totalArea 0 means the field-wide area is unknown (a pre-summary file);
// Fraction is reported only when the denominator is known.
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

// AggregateContext implements AggregateQuerier: the summary pages are read
// (at most summaryPages physical accesses, sequential) and evaluated at the
// query's endpoints; when the certified fraction bound is within maxErr the
// estimate is the answer, otherwise the exact filter + refinement pipeline
// runs under the same pinned state and trace and its cost is added to the
// query's. An index whose file declares no summary pages always answers
// exactly.
func (p *Partitioned) AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := p.startQuery(string(p.method), obs.KindAggregate, q.Lo, q.Hi)
	s, release := p.pinState()
	res, err := p.aggregateAt(s, &p.observed, ctx, tb, q, maxErr)
	release()
	p.endQuery(tb, start, err)
	return res, err
}

// Aggregate is AggregateContext without cancellation.
func (p *Partitioned) Aggregate(q geom.Interval, maxErr float64) (*AggregateResult, error) {
	return p.AggregateContext(context.Background(), q, maxErr)
}

// aggregateAt answers one aggregate query against a pinned state. The caller
// must hold a pin at s.epoch for the duration of the call.
func (p *Partitioned) aggregateAt(s *partState, o *observed, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if p.sumPages == 0 {
		// No summary pages: the exact pipeline is the only answer. The total area is unknown there, so Fraction stays 0.
		exact, err := p.valueQueryAt(s, o, ctx, tb, q)
		if err != nil {
			return nil, err
		}
		res := exactToResult(q, maxErr, exact, p.cells, 0)
		res.Fallback = true
		o.recordAggregate(true)
		return res, nil
	}
	qc := beginQueryAt(p.pager, s.epoch)
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseSummary)
	buf, err := readSummary(qc, p.sumFirst, p.sumPages)
	if err != nil {
		qc.Release()
		return nil, err
	}
	est, err := approx.EvalEncoded(buf, q.Lo, q.Hi)
	qc.EndSpan()
	sumIO := qc.Stats()
	qc.Release()
	if err != nil {
		return nil, err
	}
	res := estimateToResult(q, maxErr, est)
	if _, fb := est.Fraction(); fb <= maxErr {
		res.IO = sumIO
		o.recordIO(res.IO, 0, res.IO)
		o.recordAggregate(false)
		return res, nil
	}
	// The certified bound exceeds the tolerance: run the exact pipeline under
	// the same pin and trace. The summary probe stays in the query's
	// accounting (it was a real cost), and the answer becomes exact — the
	// summary header still supplies the field-wide denominators.
	exact, err := p.valueQueryAt(s, o, ctx, tb, q)
	if err != nil {
		return nil, err
	}
	res = exactToResult(q, maxErr, exact, p.cells, est.TotalArea)
	res.TotalCells = est.N
	res.Fallback = true
	res.IO = addStats(sumIO, exact.IO)
	o.recordIO(sumIO, 0, sumIO)
	o.recordAggregate(true)
	return res, nil
}

// maintainSummary keeps the field summary truthful across an update batch
// whose cell intervals changed, staging the new summary page images into the
// batch's copy-on-write overlay set (so the refreshed summary commits — and
// versions — with the same epoch as the data it describes, and pinned
// snapshots keep reading their own epoch's pages).
//
// Two maintenance modes:
//
//   - refit — an index built in memory carries the per-cell areas from
//     construction (cell vertices never move under value updates, so they
//     stay the correct fit weights); the summary is refitted from the
//     updated interval column under the original page budget, restoring
//     build-quality bounds.
//   - widen — a file-opened index has intervals (recovered from the sidecar)
//     but no areas; instead the header's widening slack grows by the batch's
//     touched-cell count and area. Each touched cell shifts each cumulative
//     distribution by at most one count and its own area, so the stale
//     segments plus the accumulated slack remain a certified bound.
func (p *Partitioned) maintainSummary(st *overlayStage, cellsTouched int, touchedArea float64) error {
	if p.sumPages == 0 {
		return nil
	}
	if p.areas != nil {
		sum, err := approx.Build(p.ivs, p.areas, p.sumPages*p.pager.PageSize())
		if err != nil {
			return err
		}
		blob := sum.Encode()
		ps := p.pager.PageSize()
		if len(blob) > p.sumPages*ps {
			return fmt.Errorf("core: refitted summary %d bytes exceeds %d pages", len(blob), p.sumPages)
		}
		for i := 0; i < p.sumPages; i++ {
			page := make([]byte, ps)
			if off := i * ps; off < len(blob) {
				copy(page, blob[off:])
			}
			st.pages[p.sumFirst+storage.PageID(i)] = page
		}
		return nil
	}
	page, err := st.page(p.sumFirst)
	if err != nil {
		return err
	}
	approx.PatchWiden(page, float64(cellsTouched), touchedArea)
	return nil
}

// AggregateContext implements AggregateQuerier on a pinned snapshot: the
// query runs at the snapshot's epoch, reading the summary pages as they were
// when the snapshot was acquired (update batches version them copy-on-write
// like any data page).
func (s *partSnapshot) AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := &s.p.observed
	tb, start := o.startQuery(string(s.p.method), obs.KindAggregate, q.Lo, q.Hi)
	res, err := s.p.aggregateAt(s.st, o, ctx, tb, q, maxErr)
	o.endQuery(tb, start, err)
	return res, err
}

// AggregateContext implements AggregateQuerier for the tiled planner. The
// answer is composed in three escalating stages:
//
//  1. Tile composition — when every tile is either disjoint from the query
//     or fully covered by it, the per-tile summaries (cell count, total
//     area) compose the exact answer with ZERO page reads: a covered tile's
//     value range lies inside the query, so every one of its cells matches.
//  2. Global summary — otherwise the field-wide summary pages answer within
//     a certified bound, at most summaryPages physical reads.
//  3. Exact scatter-gather — when the bound exceeds maxErr, the regular
//     prune/scatter/gather pipeline runs under the same pinned state.
func (t *TiledIndex) AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := t.startQuery(t.label, obs.KindAggregate, q.Lo, q.Hi)
	s, release := t.pinState()
	res, err := t.aggregateAt(s, &t.observed, ctx, tb, q, maxErr)
	release()
	t.endQuery(tb, start, err)
	return res, err
}

// Aggregate is AggregateContext without cancellation.
func (t *TiledIndex) Aggregate(q geom.Interval, maxErr float64) (*AggregateResult, error) {
	return t.AggregateContext(context.Background(), q, maxErr)
}

// aggregateAt answers one aggregate query against a pinned tiled state. The
// caller must hold a pin at s.epoch for the duration of the call.
func (t *TiledIndex) aggregateAt(s *tiledState, o *observed, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	qc := beginQueryAt(t.pager, s.epoch)
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseSummary)
	count, area := 0.0, 0.0
	composed := true
	for ti := range t.tiles {
		vr := s.vr[ti]
		if !vr.Intersects(q) {
			continue
		}
		if q.Lo <= vr.Lo && vr.Hi <= q.Hi {
			// The tile's whole value range lies inside the query: every
			// member cell matches, and the per-tile summary carries the
			// exact count and area. Value summaries only ever widen under
			// updates, so a covered test stays a sound (if conservative)
			// exactness certificate across epochs.
			count += float64(len(t.tiles[ti].ids))
			area += t.tileArea[ti]
			continue
		}
		composed = false
		break
	}
	if composed {
		qc.EndSpan()
		res := &AggregateResult{
			Query:      q,
			MaxErr:     maxErr,
			Count:      count,
			Area:       area,
			TotalCells: float64(t.cells),
			TotalArea:  t.totArea,
			Approx:     true,
		}
		if t.totArea > 0 {
			res.Fraction = area / t.totArea
		}
		res.IO = qc.Stats()
		qc.Release()
		o.recordIO(res.IO, 0, res.IO)
		o.recordAggregate(false)
		return res, nil
	}
	if t.sumPages == 0 {
		// No global summary pages to consult.
		qc.EndSpan()
		qc.Release()
		exact, err := t.valueQueryAt(s, ctx, tb, q, nil)
		if err != nil {
			return nil, err
		}
		res := exactToResult(q, maxErr, exact, t.cells, t.totArea)
		res.Fallback = true
		o.recordAggregate(true)
		return res, nil
	}
	buf, err := readSummary(qc, t.sumFirst, t.sumPages)
	if err != nil {
		qc.Release()
		return nil, err
	}
	est, err := approx.EvalEncoded(buf, q.Lo, q.Hi)
	qc.EndSpan()
	sumIO := qc.Stats()
	qc.Release()
	if err != nil {
		return nil, err
	}
	res := estimateToResult(q, maxErr, est)
	if _, fb := est.Fraction(); fb <= maxErr {
		res.IO = sumIO
		o.recordIO(res.IO, 0, res.IO)
		o.recordAggregate(false)
		return res, nil
	}
	exact, err := t.valueQueryAt(s, ctx, tb, q, nil)
	if err != nil {
		return nil, err
	}
	res = exactToResult(q, maxErr, exact, t.cells, est.TotalArea)
	res.TotalCells = est.N
	res.Fallback = true
	res.IO = addStats(sumIO, exact.IO)
	o.recordIO(sumIO, 0, sumIO)
	o.recordAggregate(true)
	return res, nil
}

// AggregateContext implements AggregateQuerier on a pinned tiled snapshot.
func (s *tiledSnapshot) AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := &s.t.observed
	tb, start := o.startQuery(s.t.label, obs.KindAggregate, q.Lo, q.Hi)
	res, err := s.t.aggregateAt(s.st, o, ctx, tb, q, maxErr)
	o.endQuery(tb, start, err)
	return res, err
}

// AggregateFromExact packages a finished exact query as an aggregate answer
// — the facade's fallback for methods without field summaries (LinearScan,
// I-All, Auto), live or pinned: the answer is exact, the cost is the full
// query cost, and the field-wide area denominator is unknown (Fraction stays
// 0).
func AggregateFromExact(q geom.Interval, maxErr float64, exact *Result, totalCells int) *AggregateResult {
	res := exactToResult(q, maxErr, exact, totalCells, 0)
	res.Fallback = true
	return res
}

var (
	_ AggregateQuerier = (*Partitioned)(nil)
	_ AggregateQuerier = (*partSnapshot)(nil)
	_ AggregateQuerier = (*TiledIndex)(nil)
	_ AggregateQuerier = (*tiledSnapshot)(nil)
)
