package fielddb

// The unified query surface. Three handle types answer queries — a live *DB,
// a *StoredIndex reopened from a database file, and a pinned *Snapshot — and
// they answer through one implementation: the unexported surface type below
// holds validation, dispatch, batch collection and contour assembly exactly
// once over one core.Engine, and the handles embed it as thin owners of
// state. Querier is the exported contract over that implementation: the
// serving tier (internal/serve, cmd/fieldserve) binds only to it, and a
// shared conformance test table (querier_conformance_test.go) drives all
// three handles through it.
//
// Context-taking methods are the surface; the five context-free names the
// examples and command-line tools call (ValueQuery, ValueAbove, ValueBelow,
// PointQuery, Contours) are conveniences over them with
// context.Background().

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fielddb/internal/contour"
	"fielddb/internal/core"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// Querier is the query surface shared by *DB, *StoredIndex and *Snapshot:
// everything a read-side client — the HTTP serving tier above all — needs
// from an opened continuous-field database.
//
// All methods are safe for concurrent use. Every method validates in the
// same order before any I/O: a closed surface fails with ErrClosed, then a
// NaN or ±Inf value with ErrNonFiniteBound, then a hi < lo interval with
// ErrInvertedInterval, then a bad tolerance with ErrBadTolerance; the errors
// wrap the offending values so callers can branch with errors.Is.
//
// Not every implementation supports every operation: a method without
// subfields has no subfield summaries (ApproxValueQueryContext returns
// ErrNoPartition). Capability gaps surface as typed errors, never as missing
// methods.
type Querier interface {
	// Method returns the value-index strategy serving this surface.
	Method() Method
	// Stats describes the built value index.
	Stats() IndexStats
	// ValueRange returns the surface's value-domain coverage — the open ends
	// ValueAboveContext and ValueBelowContext complete their intervals with.
	ValueRange() Interval
	// ValueQueryContext answers the field value query F⁻¹(lo ≤ w ≤ hi):
	// the exact regions where the value lies in [lo, hi]. Cancellation is
	// polled between subfield cell runs and refinement work units.
	ValueQueryContext(ctx context.Context, lo, hi float64) (*Result, error)
	// ValueMeasureContext is ValueQueryContext without the answer geometry:
	// the Result's counts, areas and I/O are the same, and its Regions and
	// Isolines are nil. No polygon is built.
	ValueMeasureContext(ctx context.Context, lo, hi float64) (*Result, error)
	// ValueAboveContext answers "where is the value at least lo", reading
	// the open end of the interval from the surface's value range; a lo past
	// the range answers empty.
	ValueAboveContext(ctx context.Context, lo float64) (*Result, error)
	// ValueBelowContext answers "where is the value at most hi"; a hi below
	// the range answers empty.
	ValueBelowContext(ctx context.Context, hi float64) (*Result, error)
	// ValueQueryBatch answers several value queries, coalescing them into
	// one shared scan where the index supports it. Results are positionally
	// aligned with intervals and each is byte-identical to the solo query;
	// the first failing member determines the returned error (wrapped with
	// its position) while successful members keep their slots.
	ValueQueryBatch(ctx context.Context, intervals []Interval) ([]*Result, error)
	// ApproxValueQueryContext answers F⁻¹(lo ≤ w ≤ hi) approximately from
	// subfield metadata alone (an upper bound on matching cells and a summary
	// average, at filter-step cost). Methods without subfields (LinearScan,
	// I-All, tiled indexes) fail with ErrNoPartition.
	ApproxValueQueryContext(ctx context.Context, lo, hi float64) (*ApproxResult, error)
	// ApproxAggregateContext answers "how many cells, and how much area, have
	// a value in [lo, hi]" within a certified error tolerance of maxErr on the
	// matched-area fraction, reading at most a handful of summary pages; when
	// the certified bound exceeds maxErr (or the index has no summary) the
	// exact pipeline answers instead. maxErr 0 selects DefaultApproxMaxErr;
	// NaN and negative fail with ErrBadTolerance.
	ApproxAggregateContext(ctx context.Context, lo, hi, maxErr float64) (*AggregateResult, error)
	// PointQueryContext answers the conventional query F(v'): the
	// interpolated value at point p.
	PointQueryContext(ctx context.Context, p Point) (float64, error)
	// ContourMapContext answers F⁻¹(w = level) and assembles the per-cell
	// isoline segments into connected polylines.
	ContourMapContext(ctx context.Context, level float64) (*ContourResult, error)
	// ContoursContext is ContourMapContext reduced to the polylines.
	ContoursContext(ctx context.Context, level float64) ([]Polyline, error)
	// QueryMetrics returns a point-in-time snapshot of the engine metrics
	// registry the surface's queries record into.
	QueryMetrics() MetricsSnapshot
}

// The three handles satisfy Querier through the embedded surface; these
// assertions break the build — not a runtime path — the moment one drifts.
var (
	_ Querier = (*DB)(nil)
	_ Querier = (*StoredIndex)(nil)
	_ Querier = (*Snapshot)(nil)
)

// BatchStats summarizes the shared execution of one query batch: member
// count, the physical (deduplicated) I/O the batch performed, the attributed
// page reads of its members, and how many reads the coalescing saved.
type BatchStats = core.BatchStats

// ConjunctiveResult is the outcome of a conjunctive (And) query.
type ConjunctiveResult = core.ConjunctiveResult

// ApproxResult is the outcome of an approximate value query answered from
// subfield metadata alone (no cell pages read).
type ApproxResult = core.ApproxResult

// Polyline is a connected isoline chain; closed contours repeat their first
// point at the end.
type Polyline = contour.Polyline

// ContourResult is an assembled isoline map plus the I/O its value query
// cost.
type ContourResult struct {
	Polylines []Polyline
	IO        storage.Stats
}

// surface is the one implementation of Querier. *DB, *StoredIndex and
// *Snapshot embed it and differ only in the values below, all fixed when the
// handle is opened or acquired — nothing is built per query.
type surface struct {
	// index is the value index every query runs on: the live core engine, or
	// — on a Snapshot — the same engine pinned at acquisition, which answers
	// value, batch, approximate and aggregate queries (and Stats, which an
	// update batch's re-cut would otherwise move) at that state.
	index core.Engine
	// closed is the handle's own flag; owner, on a Snapshot, is its DB's
	// flag too: closing either closes the snapshot's surface.
	closed atomic.Bool
	owner  *atomic.Bool
	// vrange completes the open-ended intervals of ValueAbove/ValueBelow.
	// Only a live DB stores to it after open (UpdateSamples keeps it current);
	// reading the field's own ValueRange instead would race with an updater's
	// SetSample.
	vrange atomic.Pointer[Interval]
	// batcher, when an admission window is armed, takes solo value queries in
	// index's place: at once while a core is free, coalesced onto shared scans
	// while none is.
	batcher *core.Batcher
	// spatial locates the candidate cells of a conventional query — by a
	// DEM's lattice or a TIN's buckets — whose records it reads from index,
	// so a Snapshot's point queries answer at the same pin as its value
	// queries.
	spatial *core.Locator
	// ob is where contour assembly traces and meters. A Snapshot shares its
	// DB's, so SetTracer reaches snapshot queries the way it reaches the
	// engine's own traces.
	ob *obs.Observer
}

// installObservers (re)installs the trace/metrics sinks on the value index
// and the locator.
func (s *surface) installObservers() {
	s.index.SetObserver(*s.ob)
	s.spatial.SetObserver(*s.ob)
}

// checkOpen guards every query path against use after Close.
func (s *surface) checkOpen() error {
	if s.closed.Load() || (s.owner != nil && s.owner.Load()) {
		return ErrClosed
	}
	return nil
}

// Method returns the value-index strategy in use.
func (s *surface) Method() Method { return s.index.Method() }

// Stats describes the value index (as it stood at acquisition, on a
// Snapshot).
func (s *surface) Stats() IndexStats { return s.index.Stats() }

// Subfields returns the subfield partition of the value index, or nil for
// configurations without one (LinearScan, I-All, tiled indexes). The cells of
// each subfield are copies and safe to retain.
func (s *surface) Subfields() []Subfield {
	var out []Subfield
	s.index.ForEachGroup(func(_ int, iv Interval, cells []CellID) bool {
		out = append(out, Subfield{Interval: iv, Cells: append([]CellID(nil), cells...)})
		return true
	})
	return out
}

// ValueRange returns the value-domain coverage: kept current across update
// batches on a live DB (conservatively wide while a batch is mid-flight),
// fixed at open or acquisition otherwise.
func (s *surface) ValueRange() Interval { return *s.vrange.Load() }

// QueryMetrics returns the engine-level metrics registry snapshot — a
// Snapshot's queries meter into its DB's registry.
func (s *surface) QueryMetrics() MetricsSnapshot { return s.ob.Metrics.Snapshot() }

// ValueQueryContext answers the field value query F⁻¹(lo ≤ w ≤ hi): the exact
// regions where the field's value lies in [lo, hi]. With lo == hi the answer
// geometry is returned as isolines. ctx is polled between subfield cell runs
// (and, when the query fans out, before each block of runs or tile), so a canceled
// query stops mid-refinement and returns ctx's error. (The serving tier asks
// for a response without rings under core.WithMeasure, which this method, the
// open-ended two and the batch honour: see ValueMeasureContext.)
func (s *surface) ValueQueryContext(ctx context.Context, lo, hi float64) (*Result, error) {
	return s.value(ctx, lo, hi, core.Measuring(ctx))
}

// ValueMeasureContext is ValueQueryContext without the answer geometry: every
// matching cell is still refined exactly, but into counts and areas (the
// measure sink), so the Result is ValueQueryContext's with Regions and Isolines
// nil and every other field — CellsMatched, RegionCount, IsolineCount, Area,
// MatchedCellArea, IO — identical. Under a BatchWindow it joins the same
// admission groups as geometry queries.
func (s *surface) ValueMeasureContext(ctx context.Context, lo, hi float64) (*Result, error) {
	return s.value(ctx, lo, hi, true)
}

// value is the one value query of the surface, with or without geometry.
func (s *surface) value(ctx context.Context, lo, hi float64, measure bool) (*Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if err := checkInterval(lo, hi); err != nil {
		return nil, err
	}
	q := Interval{Lo: lo, Hi: hi}
	switch {
	case s.batcher != nil:
		return s.batcher.Query(core.BatchQuery{Ctx: ctx, Query: q, Measure: measure})
	case measure:
		return s.index.MeasureContext(ctx, q)
	default:
		return s.index.QueryContext(ctx, q)
	}
}

// ValueQuery is ValueQueryContext without cancellation.
func (s *surface) ValueQuery(lo, hi float64) (*Result, error) {
	return s.ValueQueryContext(context.Background(), lo, hi)
}

// ValueAboveContext answers "where is the value at least lo" (the urban noise
// query of the paper's introduction). The open end of the interval comes from
// ValueRange, so it is safe to call while an update batch runs. A lo past the
// range completes to the zero-width [lo, lo], which no cell reaches: the answer
// is empty, not an inverted interval the caller never sent. A non-finite lo
// stays in the interval and fails validation as itself.
func (s *surface) ValueAboveContext(ctx context.Context, lo float64) (*Result, error) {
	return s.ValueQueryContext(ctx, lo, max(lo, s.ValueRange().Hi))
}

// ValueAbove is ValueAboveContext without cancellation.
func (s *surface) ValueAbove(lo float64) (*Result, error) {
	return s.ValueAboveContext(context.Background(), lo)
}

// ValueBelowContext answers "where is the value at most hi", completing the
// open end as ValueAboveContext does: [hi, hi] for a hi below the range.
func (s *surface) ValueBelowContext(ctx context.Context, hi float64) (*Result, error) {
	return s.ValueQueryContext(ctx, min(hi, s.ValueRange().Lo), hi)
}

// ValueBelow is ValueBelowContext without cancellation.
func (s *surface) ValueBelow(hi float64) (*Result, error) {
	return s.ValueBelowContext(context.Background(), hi)
}

// ValueQueryBatch answers several value queries as one shared scan: a single
// filter pass evaluates every query's predicate, the union of their
// candidate cell runs is fetched once, and each decoded cell is handed to
// every query it satisfies. Results are positionally aligned with intervals
// and each is byte-identical — geometry and per-query I/O statistics alike —
// to what ValueQueryContext would return solo; batching changes only the
// physical I/O (visible in Metrics as batch physical pages and coalesced
// pages saved). ctx cancels the whole batch. Unlike BatchWindow, no admission
// gate is involved: the batch is explicit and runs whether or not a core is
// free.
//
// The first failing query determines the returned error (wrapped with its
// position); the slice still carries every successful query's result, with
// nil at failed positions. All intervals are validated before any I/O. A
// Snapshot's batch is one shared scan at its pin.
func (s *surface) ValueQueryBatch(ctx context.Context, intervals []Interval) ([]*Result, error) {
	out, _, err := s.ValueQueryBatchStats(ctx, intervals)
	return out, err
}

// ValueQueryBatchStats is ValueQueryBatch plus the batch-level execution
// summary the per-member results cannot carry: the physical (deduplicated)
// I/O the shared scan performed and the attributed reads the coalescing
// saved.
func (s *surface) ValueQueryBatchStats(ctx context.Context, intervals []Interval) ([]*Result, BatchStats, error) {
	if err := s.checkOpen(); err != nil {
		return nil, BatchStats{}, err
	}
	if len(intervals) == 0 {
		return nil, BatchStats{}, fmt.Errorf("%w: empty batch", ErrBadConjunction)
	}
	for i, iv := range intervals {
		if err := checkInterval(iv.Lo, iv.Hi); err != nil {
			return nil, BatchStats{}, fmt.Errorf("%w (query %d)", err, i)
		}
	}
	members := make([]core.BatchQuery, len(intervals))
	measure := core.Measuring(ctx)
	for i, iv := range intervals {
		members[i] = core.BatchQuery{Ctx: ctx, Query: iv, Measure: measure}
	}
	results, st := s.index.QueryBatch(members)
	// Positionally aligned results with nil at failed slots, first failure
	// wrapped with its position.
	out := make([]*Result, len(results))
	var firstErr error
	for i, r := range results {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("query %d: %w", i, r.Err)
			}
			continue
		}
		out[i] = r.Res
	}
	return out, st, firstErr
}

// ApproxValueQueryContext answers F⁻¹(lo ≤ w ≤ hi) approximately using only
// the subfield R*-tree and per-subfield summaries (the paper's §3 suggestion
// of storing e.g. the average value per subfield): an upper bound on matching
// cells and a summary average, at filter-step cost. Methods without subfields
// fail with ErrNoPartition (a tiled file has no subfield partition); a
// Snapshot reads the partition state pinned at acquisition, so a later re-cut
// never leaks into the answer.
func (s *surface) ApproxValueQueryContext(ctx context.Context, lo, hi float64) (*ApproxResult, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	// Validate the interval before the capability: a bad interval is a bad
	// interval no matter which method is in use.
	if err := checkInterval(lo, hi); err != nil {
		return nil, err
	}
	return s.index.ApproxQueryContext(ctx, Interval{Lo: lo, Hi: hi})
}

// ApproxAggregateContext answers the aggregate query "how many cells, and how
// much area, have a value in [lo, hi]" with a certified error tolerance of
// maxErr on the matched-area fraction. Indexes with a field summary (every
// partition-based or tiled index) answer from the summary
// pages — at most four physical reads at any selectivity — and fall back to
// the exact pipeline when the certified bound exceeds maxErr; methods without
// a summary (LinearScan, I-All) always answer exactly. A Snapshot reads the
// summary pages as they were at acquisition (update batches version them
// copy-on-write like any data page), so its certified bounds describe the
// pinned field state. maxErr 0 selects DefaultApproxMaxErr; +Inf accepts any
// certified bound; NaN and negative values fail with ErrBadTolerance. ctx
// cancels the exact fallback pipeline (the summary probe itself is a handful
// of page reads).
func (s *surface) ApproxAggregateContext(ctx context.Context, lo, hi, maxErr float64) (*AggregateResult, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if err := checkInterval(lo, hi); err != nil {
		return nil, err
	}
	tol, err := resolveMaxErr(maxErr)
	if err != nil {
		return nil, err
	}
	return s.index.AggregateContext(ctx, Interval{Lo: lo, Hi: hi}, tol)
}

// PointQueryStatsContext answers the conventional query F(v'): the
// interpolated value at point p, through the locator — a DEM's lattice, a
// TIN's cell buckets, neither of which reads a page — and the cells it finds
// in the value store (at the pinned epoch, on a Snapshot), plus the query's
// own I/O statistics: the candidate cells' fetch, also published to the
// store's totals. ctx is polled between candidate cell fetches. Every surface
// answers, a StoredIndex saved from a TIN as its DB does.
func (s *surface) PointQueryStatsContext(ctx context.Context, p Point) (float64, storage.Stats, error) {
	if err := s.checkOpen(); err != nil {
		return 0, storage.Stats{}, err
	}
	if err := checkValue(p.X); err != nil {
		return 0, storage.Stats{}, err
	}
	if err := checkValue(p.Y); err != nil {
		return 0, storage.Stats{}, err
	}
	return s.spatial.PointQueryContext(ctx, s.index, p)
}

// PointQueryContext is PointQueryStatsContext reduced to the value.
func (s *surface) PointQueryContext(ctx context.Context, p Point) (float64, error) {
	w, _, err := s.PointQueryStatsContext(ctx, p)
	return w, err
}

// PointQuery is PointQueryContext without cancellation.
func (s *surface) PointQuery(p Point) (float64, error) {
	return s.PointQueryContext(context.Background(), p)
}

// ContourMapContext answers the exact value query F⁻¹(w = level), assembles
// the per-cell isoline segments into connected polylines — an isoline map
// extracted through the value index instead of an exhaustive scan — and
// reports the query's own I/O statistics. The assembly stage emits its own
// trace (kind "contour", one contour-assemble span reading no pages) so a
// tracer sees both the query and the post-processing it paid for.
func (s *surface) ContourMapContext(ctx context.Context, level float64) (*ContourResult, error) {
	res, err := s.value(ctx, level, level, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tb := obs.Begin(s.ob.Tracer, string(s.Method()), obs.KindContour, level, level)
	tb.BeginSpan(obs.PhaseContour, obs.PageCounts{})
	polylines := contour.Assemble(res.Isolines, 1e-9)
	tb.EndSpan(obs.PageCounts{})
	tb.Finish(nil)
	s.ob.Metrics.RecordContour(time.Since(start))
	return &ContourResult{Polylines: polylines, IO: res.IO}, nil
}

// ContoursContext is ContourMapContext reduced to the polylines.
func (s *surface) ContoursContext(ctx context.Context, level float64) ([]Polyline, error) {
	cr, err := s.ContourMapContext(ctx, level)
	if err != nil {
		return nil, err
	}
	return cr.Polylines, nil
}

// Contours is ContoursContext without cancellation.
func (s *surface) Contours(level float64) ([]Polyline, error) {
	return s.ContoursContext(context.Background(), level)
}

// checkValue rejects NaN and ±Inf query values with ErrNonFiniteBound.
func checkValue(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w %g", ErrNonFiniteBound, v)
	}
	return nil
}

// checkInterval is the single validation point for user-supplied value
// intervals; every query path — solo, open-ended, batch, and conjunctive —
// calls it before touching an index.
func checkInterval(lo, hi float64) error {
	if err := checkValue(lo); err != nil {
		return err
	}
	if err := checkValue(hi); err != nil {
		return err
	}
	if hi < lo {
		// Wrapping keeps the message byte-compatible with the pre-sentinel
		// facade while letting callers branch with errors.Is.
		return fmt.Errorf("%w [%g, %g]", ErrInvertedInterval, lo, hi)
	}
	return nil
}

// And runs a conjunctive value query across databases sharing the same
// spatial domain: region where every db's value lies in its interval.
func And(dbs []*DB, intervals []Interval) (*ConjunctiveResult, error) {
	return AndContext(context.Background(), dbs, intervals)
}

// AndContext is And with cancellation: AndQueriers over live databases.
func AndContext(ctx context.Context, dbs []*DB, intervals []Interval) (*ConjunctiveResult, error) {
	qs := make([]Querier, len(dbs))
	for i, db := range dbs {
		qs[i] = db
	}
	return AndQueriers(ctx, qs, intervals)
}

// AndQueriers runs a conjunctive value query across query surfaces sharing
// the same spatial domain: the region where every surface's value lies in
// its interval. Live databases and stored indexes mix freely in one
// conjunction. The condition lists must be non-empty and of equal length,
// every surface must be non-nil and open, and every interval well-formed:
// shape errors wrap ErrBadConjunction; per-condition errors wrap ErrClosed,
// ErrNonFiniteBound or ErrInvertedInterval and name the offending condition.
// Surfaces that cannot contribute an index to a shared conjunction —
// snapshots, whose pinned state is not a standalone index, or third-party
// Querier implementations — fail with ErrBadConjunction naming the condition.
func AndQueriers(ctx context.Context, qs []Querier, intervals []Interval) (*ConjunctiveResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("%w: no conditions", ErrBadConjunction)
	}
	if len(qs) != len(intervals) {
		return nil, fmt.Errorf("%w: %d queriers but %d intervals",
			ErrBadConjunction, len(qs), len(intervals))
	}
	idxs := make([]core.Index, len(qs))
	for i, q := range qs {
		var s *surface
		switch h := q.(type) {
		case *DB:
			if h != nil {
				s = &h.surface
			}
		case *StoredIndex:
			if h != nil {
				s = &h.surface
			}
		}
		if s == nil {
			return nil, fmt.Errorf("%w: surface %T cannot join a conjunction (condition %d)",
				ErrBadConjunction, q, i)
		}
		if err := s.checkOpen(); err != nil {
			return nil, fmt.Errorf("%w (condition %d)", err, i)
		}
		if err := checkInterval(intervals[i].Lo, intervals[i].Hi); err != nil {
			return nil, fmt.Errorf("%w (condition %d)", err, i)
		}
		idxs[i] = s.index
	}
	return core.ConjunctiveQueryContext(ctx, idxs, intervals)
}
