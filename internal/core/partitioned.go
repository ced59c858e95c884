package core

import (
	"context"
	"fmt"
	"math"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// groupMeta is the leaf payload of a subfield index: the subfield's value
// interval and the physical run of heap-file pages holding its cells —
// the (ptr_start, ptr_end) pointers of the paper's Figure 6.
type groupMeta struct {
	interval  geom.Interval
	firstPage int // index into the heap file's page list
	lastPage  int
	cells     int
	startRef  int // [startRef, endRef) into the partition's cell order
	endRef    int
	// avg is the mean of the member cells' interval midpoints — the extra
	// per-subfield summary the paper suggests appending (§3: "We may append
	// other kinds of values ... for example, the average of field values of
	// subfield"). It powers approximate aggregate queries that never touch
	// cell pages.
	avg float64
}

// HilbertOptions tunes BuildIHilbert.
type HilbertOptions struct {
	// Curve linearizes the cells; nil selects a Hilbert curve of order 16.
	// Z-order or Gray-code curves can be substituted for the clustering
	// ablation.
	Curve sfc.Curve
	// Cost is the subfield cost model; the zero value selects the paper's
	// model (Epsilon = 1).
	Cost subfield.CostModel
	// Params override the R*-tree parameters.
	Params rstar.Params
	// Workers bounds the goroutines used for construction (linearization,
	// per-subfield metadata) and is inherited as the query-time refinement
	// parallelism. 0 or 1 means single-threaded.
	Workers int
	// NoSidecar skips building the columnar interval sidecar (and with it
	// the sidecar catalog fields).
	NoSidecar bool
	// Codec selects the sidecar page codec (storage.SidecarCodecRaw or
	// storage.SidecarCodecPacked); empty selects the raw legacy layout.
	Codec string
}

// BuildIHilbert builds the paper's proposed index: Hilbert linearization,
// greedy cost-based subfields, 1-D R*-tree over subfield intervals.
func BuildIHilbert(f field.Field, pager *storage.Pager, opts HilbertOptions) (*Partitioned, error) {
	return BuildIHilbertCtx(context.Background(), f, pager, opts)
}

// BuildIHilbertCtx is BuildIHilbert with construction cancellation, polled
// between cell-write batches and between per-subfield metadata work units.
func BuildIHilbertCtx(ctx context.Context, f field.Field, pager *storage.Pager, opts HilbertOptions) (*Partitioned, error) {
	curve := opts.Curve
	if curve == nil {
		var err error
		curve, err = sfc.NewHilbert(16, 2)
		if err != nil {
			return nil, err
		}
	}
	cost := opts.Cost
	if cost.Epsilon == 0 {
		cost = subfield.DefaultCostModel
	}
	refs, err := subfield.LinearizeWorkers(f, curve, clampWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	groups := subfield.BuildGreedy(refs, cost)
	return asPartitioned(buildPartitioned(ctx, MethodIHilbert, f, pager, refs, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, 0))
}

// asPartitioned names a built subfield executor by its exported type.
func asPartitioned(e *executor, err error) (*Partitioned, error) {
	if err != nil {
		return nil, err
	}
	return &Partitioned{e}, nil
}

// ThresholdOptions tunes BuildIThreshold and BuildIQuad.
type ThresholdOptions struct {
	// MaxSize is the maximum subfield interval size (cost-model size,
	// i.e. length + Epsilon).
	MaxSize float64
	// Curve linearizes the cells for I-Threshold; nil selects Hilbert.
	Curve sfc.Curve
	// Cost is the cost model used for interval sizes.
	Cost subfield.CostModel
	// Params override the R*-tree parameters.
	Params rstar.Params
	// MaxDepth bounds the quadtree recursion for I-Quad (0 = default).
	MaxDepth int
	// Workers bounds construction and refinement parallelism, as in
	// HilbertOptions.
	Workers int
	// NoSidecar skips the interval sidecar, as in HilbertOptions.
	NoSidecar bool
	// Codec selects the sidecar page codec, as in HilbertOptions.
	Codec string
}

// BuildIThreshold is the fixed-threshold ablation: Hilbert linearization
// with subfields cut whenever the interval size would exceed MaxSize.
func BuildIThreshold(f field.Field, pager *storage.Pager, opts ThresholdOptions) (*Partitioned, error) {
	return BuildIThresholdCtx(context.Background(), f, pager, opts)
}

// BuildIThresholdCtx is BuildIThreshold with construction cancellation.
func BuildIThresholdCtx(ctx context.Context, f field.Field, pager *storage.Pager, opts ThresholdOptions) (*Partitioned, error) {
	curve := opts.Curve
	if curve == nil {
		var err error
		curve, err = sfc.NewHilbert(16, 2)
		if err != nil {
			return nil, err
		}
	}
	cost := opts.Cost
	if cost.Epsilon == 0 {
		cost = subfield.DefaultCostModel
	}
	if opts.MaxSize <= 0 {
		return nil, fmt.Errorf("core: I-Threshold needs MaxSize > 0")
	}
	refs, err := subfield.LinearizeWorkers(f, curve, clampWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	groups := subfield.BuildThreshold(refs, cost, opts.MaxSize)
	return asPartitioned(buildPartitioned(ctx, MethodIThresh, f, pager, refs, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, opts.MaxSize))
}

// BuildIQuad builds the Interval Quadtree comparator (Kang et al. CIKM'99):
// quadtree partitioning with a fixed interval-size threshold; cells are
// clustered on disk by quadrant.
func BuildIQuad(f field.Field, pager *storage.Pager, opts ThresholdOptions) (*Partitioned, error) {
	return BuildIQuadCtx(context.Background(), f, pager, opts)
}

// BuildIQuadCtx is BuildIQuad with construction cancellation.
func BuildIQuadCtx(ctx context.Context, f field.Field, pager *storage.Pager, opts ThresholdOptions) (*Partitioned, error) {
	cost := opts.Cost
	if cost.Epsilon == 0 {
		cost = subfield.DefaultCostModel
	}
	if opts.MaxSize <= 0 {
		return nil, fmt.Errorf("core: I-Quad needs MaxSize > 0")
	}
	// The quadtree needs centers and intervals but no curve keys; reuse
	// Linearize with a trivial curve order to fill the refs, then let the
	// quadtree impose its own order.
	curve, err := sfc.NewHilbert(16, 2)
	if err != nil {
		return nil, err
	}
	refs, err := subfield.LinearizeWorkers(f, curve, clampWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	ordered, groups := subfield.BuildQuad(refs, f.Bounds(), cost, opts.MaxSize, opts.MaxDepth)
	return asPartitioned(buildPartitioned(ctx, MethodIQuad, f, pager, ordered, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, opts.MaxSize))
}

// buildPartitioned stores cells in partition order and indexes the group
// intervals. ctx cancels construction between cell-write batches and between
// per-subfield metadata work units.
func buildPartitioned(ctx context.Context, method Method, f field.Field, pager *storage.Pager,
	refs []subfield.CellRef, groups []subfield.Group, params rstar.Params, workers int, codec string,
	cost subfield.CostModel, maxSize float64) (*executor, error) {
	if err := subfield.Validate(refs, groups); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if params.PageSize == 0 {
		params.PageSize = pager.PageSize()
	}
	workers = clampWorkers(workers)
	ids := make([]field.CellID, len(refs))
	for i, r := range refs {
		ids[i] = r.ID
	}
	heap, rids, sc, areas, err := writeCells(ctx, f, pager, ids, codec)
	if err != nil {
		return nil, err
	}
	// Per-subfield metadata (page run, summary average) is independent
	// across groups, so construction fans out on the worker pool.
	metas := make([]groupMeta, len(groups))
	entries := make([]rstar.Entry, len(groups))
	err = parallelDoCtx(ctx, workers, len(groups), func(gi int) error {
		g := groups[gi]
		first := heap.PageIndex(rids[g.Start].Page)
		last := heap.PageIndex(rids[g.End-1].Page)
		if first < 0 || last < 0 {
			return fmt.Errorf("core: group %d pages not found", gi)
		}
		sum := 0.0
		for i := g.Start; i < g.End; i++ {
			iv := refs[i].Interval
			sum += (iv.Lo + iv.Hi) / 2
		}
		metas[gi] = groupMeta{
			interval: g.Interval, firstPage: first, lastPage: last,
			cells: g.Len(), startRef: g.Start, endRef: g.End,
			avg: sum / float64(g.Len()),
		}
		entries[gi] = rstar.Entry{
			MBR:  rstar.Interval1D(g.Interval.Lo, g.Interval.Hi),
			Data: uint64(gi),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Subfield intervals are few; the tree is built by R* insertion, as in
	// the paper.
	tree, err := rstar.New(1, params)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			return nil, err
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	ivs := make([]geom.Interval, len(refs))
	for i, r := range refs {
		ivs[i] = r.Interval
	}
	// The field summary lives on its own page run right after the index
	// pages, so an approximate aggregate touches a handful of dedicated
	// pages and nothing else.
	sumFirst, sumPages, err := buildSummary(pager, ivs, areas)
	if err != nil {
		return nil, err
	}
	ix := &valueIndex{
		method:   method,
		pager:    pager,
		heap:     heap,
		order:    ids,
		cells:    len(refs),
		rids:     rids,
		sidecar:  sc,
		workers:  workers,
		cost:     cost,
		maxSize:  maxSize,
		ivs:      ivs,
		sumFirst: sumFirst,
		sumPages: sumPages,
		areas:    areas,
	}
	return newExecutor(ix, &state{epoch: pager.CurrentEpoch(), tree: tree, groups: metas}), nil
}

// NumGroups returns the number of subfields in the partition.
func (e *executor) NumGroups() int { return len(e.cur().groups) }

// GroupIntervals returns the value interval of every subfield, for
// inspection and visualization (Figure 7).
func (e *executor) GroupIntervals() []geom.Interval {
	groups := e.cur().groups
	out := make([]geom.Interval, len(groups))
	for i, g := range groups {
		out[i] = g.interval
	}
	return out
}

// ValueRange returns the union of the subfield intervals — the field's full
// value range, since every cell belongs to exactly one subfield whose
// interval covers it. It lets a stored index serve open-ended value queries
// (ValueAbove/ValueBelow) without the original field.
func (e *executor) ValueRange() geom.Interval {
	vr := geom.EmptyInterval()
	for _, g := range e.cur().groups {
		vr = vr.Union(g.interval)
	}
	return vr
}

// ForEachGroup visits every subfield with its value interval and member
// cells (in physical storage order) — the data behind the paper's Figure 7
// subfield map. The cells slice is only valid during the call.
func (e *executor) ForEachGroup(fn func(group int, iv geom.Interval, cells []field.CellID) bool) {
	for gi, g := range e.cur().groups {
		if !fn(gi, g.interval, e.order[g.startRef:g.endRef]) {
			return
		}
	}
}

// ApproxResult is the outcome of an approximate value query answered purely
// from subfield metadata, without fetching a single cell page.
type ApproxResult struct {
	Query geom.Interval
	// Groups is the number of subfields whose interval intersects the query.
	Groups int
	// CellsUpperBound is the total cell count of those subfields — an upper
	// bound on the number of matching cells.
	CellsUpperBound int
	// AvgValue is the cell-weighted mean of the selected subfields' average
	// values (the paper's suggested per-subfield summary), or NaN when no
	// subfield matches.
	AvgValue float64
	IO       storage.Stats
}

// ApproxQuery is ApproxQueryContext without cancellation.
func (e *executor) ApproxQuery(q geom.Interval) (*ApproxResult, error) {
	return e.ApproxQueryContext(context.Background(), q)
}

// ApproxQueryContext answers a value query approximately using only the
// R*-tree and the per-subfield summaries (§3's "average of field values of
// subfield"): it never reads cell pages, so its cost is the filter step
// alone — ctx is checked up front. The cell count is an upper bound; the
// average is exact over the selected subfields' midpoint summaries. On a
// snapshot the subfield metadata is the pinned state's, so a later re-cut of
// the live partition never leaks into the answer. Methods without subfields
// fail with ErrNoPartition.
func (e *executor) ApproxQueryContext(ctx context.Context, q geom.Interval) (*ApproxResult, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	if e.order == nil {
		return nil, fmt.Errorf("%w: method %s has no subfield summaries", ErrNoPartition, e.method)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := e.startQuery(string(e.method), obs.KindApprox, q.Lo, q.Hi)
	st, release := e.pinState()
	res, err := e.approxAt(st, tb, q)
	release()
	e.endQuery(tb, start, err)
	return res, err
}

func (e *executor) approxAt(st *state, tb *obs.TraceBuilder, q geom.Interval) (*ApproxResult, error) {
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	res := &ApproxResult{Query: q}
	var sum float64
	qc.BeginSpan(obs.PhaseFilter)
	err := st.tree.PagedSearchCtx(qc, rstar.Interval1D(q.Lo, q.Hi), func(en rstar.Entry) bool {
		g := st.groups[en.Data]
		res.Groups++
		res.CellsUpperBound += g.cells
		sum += g.avg * float64(g.cells)
		return true
	})
	if err != nil {
		return nil, err
	}
	qc.EndSpan()
	if res.CellsUpperBound > 0 {
		res.AvgValue = sum / float64(res.CellsUpperBound)
	} else {
		res.AvgValue = math.NaN()
	}
	res.IO = qc.Stats()
	e.recordIO(res.IO, 0, res.IO)
	return res, nil
}

// groupCandidates is the filter of the partitioned family: the persisted
// subfield tree selects the subfields whose interval intersects the query,
// and their (ptr_start, ptr_end) page runs — sorted, overlapping or adjacent
// ones merged, since consecutive subfields share boundary pages — are the
// candidates. A merged run can cover an interleaved unselected subfield,
// whose cells are provably non-matching (their group interval missed the
// query) and filter out like any other.
func (ix *valueIndex) groupCandidates(st *state, pr *probe) error {
	pr.begin(obs.PhaseFilter)
	err := st.tree.PagedSearchCtx(pr.qc, rstar.Interval1D(pr.q.Lo, pr.q.Hi), func(e rstar.Entry) bool {
		pr.sel = append(pr.sel, int(e.Data))
		return true
	})
	if err != nil {
		return err
	}
	pr.filter = pr.end()
	pr.groups = len(pr.sel)
	runs := make([]pageRun, 0, len(pr.sel))
	for _, gi := range pr.sel {
		runs = append(runs, pageRun{st.groups[gi].firstPage, st.groups[gi].lastPage})
	}
	pr.runs = mergeRuns(runs)
	return nil
}
