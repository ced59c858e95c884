package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// Partitioned is a subfield-based value index: cells are stored in a heap
// file in partition order (each subfield a contiguous run of pages) and the
// subfield intervals are indexed in a 1-D R*-tree. I-Hilbert, I-Quad and
// I-Threshold are Partitioned indexes that differ only in how the partition
// was formed.
type Partitioned struct {
	method Method
	pager  *storage.Pager
	heap   *storage.HeapFile
	// snap is the index's current MVCC state: the persisted R*-tree and the
	// subfield metadata valid at one storage epoch. Readers load it once, pin
	// its epoch, and run entirely against that state; an update batch
	// publishes a fresh state only after committing its page overlays, so no
	// reader ever observes a half-updated index.
	snap  atomic.Pointer[partState]
	order []field.CellID // heap-file cell order (partition order)
	cells int
	// rids maps heap position to record id (nil for a file saved without a
	// sidecar); sidecar is the packed interval segment (nil when disabled).
	rids    []storage.RID
	sidecar *storage.IntervalSidecar
	// workers bounds the goroutines of the parallel refinement step; 0 or 1
	// keeps the query single-threaded.
	workers int

	// Live-update state. updMu serializes updaters; readers never take it.
	// cost and maxSize reproduce the build's partitioning rule so an update
	// batch can re-derive the group boundaries (the §3 cost bound); ivs is
	// the current cell interval per heap position; posOf maps cell id to heap
	// position and is built by the first update that needs it.
	updMu   sync.Mutex
	cost    subfield.CostModel
	maxSize float64
	ivs     []geom.Interval
	posOf   map[field.CellID]int

	// Field-summary state for the aggregate tier: the contiguous page run
	// holding the encoded approx summary (sumPages == 0 when absent: such an
	// index answers aggregates exactly),
	// and each cell's planar area in heap order (nil for file-opened indexes;
	// when present, update batches refit the summary instead of widening its
	// certified slack).
	sumFirst storage.PageID
	sumPages int
	areas    []float64

	observed
}

// partState is one epoch's immutable view of the index structure. A state is
// never mutated after snap.Store publishes it; updates build a whole new one.
type partState struct {
	epoch  uint64
	tree   *rstar.Tree
	groups []groupMeta
}

// pinState loads the current state and pins its epoch in the pager, retrying
// across the narrow window where an update batch has committed a new epoch
// (retiring the loaded one) but not yet published its state. The returned
// release must be called exactly once; while the pin is held, beginQueryAt at
// the state's epoch cannot fail.
func (p *Partitioned) pinState() (*partState, func()) {
	for {
		s := p.snap.Load()
		if p.pager.PinEpoch(s.epoch) {
			return s, func() { p.pager.UnpinEpoch(s.epoch) }
		}
		runtime.Gosched()
	}
}

// SetWorkers bounds the worker pool that parallelizes the refinement step
// across subfield cell runs. One run is one sequential-I/O unit, so the
// answer regions and the per-query accounting are identical to the
// single-threaded run. Call before issuing queries; it is not synchronized
// with queries already in flight.
func (p *Partitioned) SetWorkers(n int) { p.workers = clampWorkers(n) }

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (p *Partitioned) SetObserver(ob obs.Observer) { p.setObs(ob, string(p.method)) }

// Close releases the index's underlying store — the database file of an
// OpenFile index; a no-op for in-memory builds.
func (p *Partitioned) Close() error { return p.pager.Close() }

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
	return buildPartitioned(ctx, MethodIHilbert, f, pager, refs, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, 0)
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
	p, err := buildPartitioned(ctx, MethodIThresh, f, pager, refs, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, opts.MaxSize)
	return p, err
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
	return buildPartitioned(ctx, MethodIQuad, f, pager, ordered, groups, opts.Params, opts.Workers, resolveSidecarCodec(opts.NoSidecar, opts.Codec), cost, opts.MaxSize)
}

// buildPartitioned stores cells in partition order and indexes the group
// intervals. ctx cancels construction between cell-write batches and between
// per-subfield metadata work units.
func buildPartitioned(ctx context.Context, method Method, f field.Field, pager *storage.Pager,
	refs []subfield.CellRef, groups []subfield.Group, params rstar.Params, workers int, codec string,
	cost subfield.CostModel, maxSize float64) (*Partitioned, error) {
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
	p := &Partitioned{
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
	p.snap.Store(&partState{epoch: pager.CurrentEpoch(), tree: tree, groups: metas})
	return p, nil
}

// Method implements Index.
func (p *Partitioned) Method() Method { return p.method }

// Stats implements Index.
func (p *Partitioned) Stats() IndexStats {
	st := p.snap.Load()
	s := IndexStats{
		Method:     p.method,
		Cells:      p.cells,
		CellPages:  p.heap.NumPages(),
		IndexPages: st.tree.PersistedNodes(),
		Groups:     len(st.groups),
		TreeHeight: st.tree.Height(),
	}
	if p.sidecar != nil {
		s.SidecarPages = p.sidecar.NumPages()
	}
	return s
}

// NumGroups returns the number of subfields in the partition.
func (p *Partitioned) NumGroups() int { return len(p.snap.Load().groups) }

// GroupIntervals returns the value interval of every subfield, for
// inspection and visualization (Figure 7).
func (p *Partitioned) GroupIntervals() []geom.Interval {
	groups := p.snap.Load().groups
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
func (p *Partitioned) ValueRange() geom.Interval {
	vr := geom.EmptyInterval()
	for _, g := range p.snap.Load().groups {
		vr = vr.Union(g.interval)
	}
	return vr
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

// ApproxQuerier is the optional capability of an index (or snapshot) that
// answers approximate value queries from subfield metadata alone, without
// fetching a single cell page. Only partition-based methods carry the
// per-subfield summaries it needs.
type ApproxQuerier interface {
	ApproxQueryContext(ctx context.Context, q geom.Interval) (*ApproxResult, error)
}

// ApproxQuery answers a value query approximately using only the R*-tree and
// the per-subfield summaries (§3's "average of field values of subfield"):
// it never reads cell pages, so its cost is the filter step alone. The cell
// count is an upper bound; the average is exact over the selected subfields'
// midpoint summaries.
func (p *Partitioned) ApproxQuery(q geom.Interval) (*ApproxResult, error) {
	return p.ApproxQueryContext(context.Background(), q)
}

// ApproxQueryContext is ApproxQuery with tracing and an up-front cancellation
// check (the query itself is one short filter step).
func (p *Partitioned) ApproxQueryContext(ctx context.Context, q geom.Interval) (*ApproxResult, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := p.startQuery(string(p.method), obs.KindApprox, q.Lo, q.Hi)
	res, err := p.approxQuery(tb, q)
	p.endQuery(tb, start, err)
	return res, err
}

func (p *Partitioned) approxQuery(tb *obs.TraceBuilder, q geom.Interval) (*ApproxResult, error) {
	s, release := p.pinState()
	defer release()
	return p.approxQueryAt(s, tb, q)
}

// approxQueryAt is approxQuery against an explicit pinned state, shared with
// the snapshot path. The caller must hold a pin at s.epoch.
func (p *Partitioned) approxQueryAt(s *partState, tb *obs.TraceBuilder, q geom.Interval) (*ApproxResult, error) {
	qc := beginQueryAt(p.pager, s.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	res := &ApproxResult{Query: q}
	var sum float64
	qc.BeginSpan(obs.PhaseFilter)
	err := s.tree.PagedSearchCtx(qc, rstar.Interval1D(q.Lo, q.Hi), func(e rstar.Entry) bool {
		g := s.groups[e.Data]
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
	p.recordIO(res.IO, 0, res.IO)
	return res, nil
}

// ForEachGroup visits every subfield with its value interval and member
// cells (in physical storage order) — the data behind the paper's Figure 7
// subfield map. The cells slice is only valid during the call.
func (p *Partitioned) ForEachGroup(fn func(group int, iv geom.Interval, cells []field.CellID) bool) {
	for gi, g := range p.snap.Load().groups {
		if !fn(gi, g.interval, p.order[g.startRef:g.endRef]) {
			return
		}
	}
}

// pageRun is one contiguous stretch of heap-file pages — one sequential-I/O
// unit of the refinement step.
type pageRun struct{ first, last int }

// mergeGroupRuns sorts the selected subfields' page runs and merges
// overlapping or adjacent ones: consecutive subfields share boundary pages,
// and reading each merged run once keeps the I/O sequential. A merged run can
// cover an interleaved unselected subfield, whose cells are provably
// non-matching (their group interval missed the query) and filter out like
// any other. It is a free function over one state's groups so the batch
// executor and the snapshot pipelines share it.
func mergeGroupRuns(groups []groupMeta, selected []int) []pageRun {
	runs := make([]pageRun, 0, len(selected))
	for _, gi := range selected {
		g := groups[gi]
		runs = append(runs, pageRun{g.firstPage, g.lastPage})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].first < runs[j].first })
	merged := runs[:1]
	for _, r := range runs[1:] {
		last := &merged[len(merged)-1]
		if r.first <= last.last+1 {
			if r.last > last.last {
				last.last = r.last
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// scanRun reads one merged cell run through qc, folding each cell into res.
// The interval test runs on the partial decode; only matching cells are
// decoded in full. ctx is polled every scanCancelStride records — adjacent
// subfield runs merge into long sequential scans, so between-run polls alone
// would be too coarse for cancellation.
func (p *Partitioned) scanRun(ctx context.Context, qc *storage.QueryCtx, r pageRun, q geom.Interval, res *Result) error {
	var c field.Cell
	var cellErr error
	// res.CellsFetched doubles as the poll counter: estimateRecord increments
	// it per record, and reusing it keeps the closure's capture set — and so
	// its allocation footprint — identical to the uncancellable loop.
	err := p.heap.ScanPagesCtx(qc, r.first, r.last, func(_ storage.RID, rec []byte) bool {
		if cellErr = estimateRecord(res, rec, &c, q); cellErr != nil {
			return false
		}
		if res.CellsFetched%scanCancelStride == 0 {
			cellErr = ctx.Err()
		}
		return cellErr == nil
	})
	if err != nil {
		return err
	}
	return cellErr
}

// Query implements Index: Step 1 (filter) finds the subfields whose
// intervals intersect q through the persisted R*-tree; Step 2 (estimation)
// reads each selected subfield's contiguous cell run — merging overlapping
// runs so shared boundary pages are read once — and computes the exact
// answer regions. With SetWorkers > 1 the runs are refined in parallel on a
// bounded worker pool; a run is one sequential-I/O unit, so the answer and
// the per-query accounting are identical to the single-threaded execution.
func (p *Partitioned) Query(q geom.Interval) (*Result, error) {
	return p.QueryContext(context.Background(), q)
}

// QueryContext implements ContextQuerier: ctx is polled between subfield cell
// runs — before each run on the sequential path, before each work item on the
// parallel one — so a canceled query returns ctx's error mid-refinement
// without leaking workers (the pool always joins).
func (p *Partitioned) QueryContext(ctx context.Context, q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query interval")
	}
	tb, start := p.startQuery(string(p.method), obs.KindValue, q.Lo, q.Hi)
	res, err := p.valueQuery(&p.observed, ctx, tb, q)
	p.endQuery(tb, start, err)
	return res, err
}

// valueQuery is the traced filter + refinement pipeline at the index's
// current state. The observed state is a parameter rather than p's own
// because the I-Auto planner runs this pipeline under its own trace and
// metrics slot.
func (p *Partitioned) valueQuery(o *observed, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval) (*Result, error) {
	s, release := p.pinState()
	defer release()
	return p.valueQueryAt(s, o, ctx, tb, q)
}

// valueQueryAt runs the pipeline against one pinned state. The caller must
// hold a pin at s.epoch for the duration of the call (pinState, a Snapshot
// handle, or the batch executor's batch-level pin).
func (p *Partitioned) valueQueryAt(s *partState, o *observed, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval) (*Result, error) {
	qc := beginQueryAt(p.pager, s.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	res := &Result{Query: q}
	query1d := rstar.Interval1D(q.Lo, q.Hi)
	var selected []int
	qc.BeginSpan(obs.PhaseFilter)
	err := s.tree.PagedSearchCtx(qc, query1d, func(e rstar.Entry) bool {
		selected = append(selected, int(e.Data))
		return true
	})
	if err != nil {
		return nil, err
	}
	qc.EndSpan()
	filterIO := qc.LocalStats()
	res.CandidateGroups = len(selected)
	if len(selected) == 0 {
		res.IO = qc.Stats()
		o.recordIO(filterIO, 0, res.IO)
		return res, nil
	}
	merged := mergeGroupRuns(s.groups, selected)

	qc.BeginSpan(obs.PhaseRefine)
	workers := clampWorkers(p.workers)
	if workers <= 1 || len(merged) < 2 {
		for _, r := range merged {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := p.scanRun(ctx, qc, r, q, res); err != nil {
				return nil, err
			}
		}
		qc.EndSpan()
		res.IO = qc.Stats()
		o.recordIO(filterIO, 0, res.IO)
		return res, nil
	}

	// Parallel refinement: every worker refines whole runs with its own
	// forked context, partial results are folded back in run order, and the
	// area is re-accumulated as the same left-to-right fold the sequential
	// path performs — so Regions, Area and Stats are all byte-identical.
	// Per-item busy time is measured only when a metrics registry is
	// installed, keeping the unobserved path timing-free.
	timed := o.ob.Metrics != nil
	var wallStart time.Time
	var busy atomic.Int64
	if timed {
		wallStart = time.Now()
	}
	partials := make([]*Result, len(merged))
	ctxs := make([]*storage.QueryCtx, len(merged))
	err = parallelDoCtx(ctx, workers, len(merged), func(i int) error {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		child := qc.Fork()
		part := &Result{Query: q}
		if err := p.scanRun(ctx, child, merged[i], q, part); err != nil {
			return err
		}
		partials[i] = part
		ctxs[i] = child
		if timed {
			busy.Add(int64(time.Since(t0)))
		}
		return nil
	})
	if timed {
		o.ob.Metrics.RecordWorkers(len(merged), time.Duration(busy.Load()), time.Since(wallStart))
	}
	if err != nil {
		return nil, err
	}
	for i, part := range partials {
		res.CellsFetched += part.CellsFetched
		res.CellsMatched += part.CellsMatched
		res.MatchedCellArea += part.MatchedCellArea
		res.Regions = append(res.Regions, part.Regions...)
		res.Isolines = append(res.Isolines, part.Isolines...)
		qc.Merge(ctxs[i])
	}
	for _, pg := range res.Regions {
		res.Area += pg.Area()
	}
	qc.EndSpan()
	res.IO = qc.Stats()
	o.recordIO(filterIO, 0, res.IO)
	return res, nil
}

var (
	_ Index          = (*Partitioned)(nil)
	_ ContextQuerier = (*Partitioned)(nil)
)
