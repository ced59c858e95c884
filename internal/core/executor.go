package core

import (
	"context"
	"sync"
	"sync/atomic"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// partition is one contiguous cell store with a method's index over it: a
// whole untiled field, or one tile of a tiled one. It owns the cells' heap
// segment and interval sidecar and the two hooks a method is; the index
// structure itself — tree, subfields, histogram — lives in the state its store
// publishes.
type partition struct {
	heap *storage.HeapFile
	// rids maps heap position to record id (nil for a file saved without a
	// sidecar); sidecar is the packed interval segment (nil when disabled).
	rids    []storage.RID
	sidecar *storage.IntervalSidecar
	cells   int
	// What the catalog records of the partition besides its pages: the ids its
	// cells have in the field, ascending (nil for an untiled store's partition,
	// where a cell's id is its own), their MBR and their total planar area
	// — exact for the index's lifetime, value updates never move a vertex.
	ids  []field.CellID
	mbr  geom.Rect
	area float64

	// The two hooks a method is, bound from its methodSpec row. candidates
	// fills pr with the cells that can match pr.q — positions when byPos, page
	// runs otherwise. maintain returns the state after an update batch whose
	// interval-changing cells are ch, with the R*-tree pages it persisted and
	// whether it re-cut the partition; nil where a method has no structure to
	// maintain. The update transaction calls it under an open PhaseMaintain
	// span on stage.qc.
	candidates func(st *state, pr *probe) error
	maintain   func(stage *overlayStage, f field.Field, cur *state, ch *changes) (next *state, indexPages int, regrouped bool, err error)
	byPos      bool
	// tested marks the one filter that tests every cell interval itself — a
	// scan's sidecar pass: its positions are survivors, not candidates, and a
	// batch can share the pass across members.
	tested bool

	// order is the heap-file cell order of a partitioned method (nil in
	// natural order, where heap position == cell id). cut, cost and maxSize
	// are the build's partitioning rule, so an update batch can re-derive the
	// group boundaries (the §3 cost bound). posOf is order's inverse, cell id
	// to heap position, filled once at build or open and immutable after; ivs
	// is the current cell interval per heap position, which a file-opened
	// index hydrates on its first update.
	order   []field.CellID
	posOf   []int32
	cut     cutRule
	cost    subfield.CostModel
	maxSize float64
	ivs     []geom.Interval

	// The I-Auto planner's decision counters.
	scanQueries, filterQueries atomic.Int64
}

// valueIndex is an untiled value index: one partition in a shell, shared by
// its live executor and every snapshot of it.
type valueIndex struct {
	shell
	*partition
}

// executor answers value queries over one valueIndex: live at whatever state
// is current, or — as a snapshot — at the state it pinned.
type executor struct {
	*valueIndex
	pinned
}

// newValueIndex wraps a built or opened partition of method as an untiled
// store on pager.
func newValueIndex(pager *storage.Pager, method Method, p *partition) *valueIndex {
	ix := &valueIndex{partition: p}
	ix.label, ix.method, ix.pager, ix.parts = string(method), method, pager, []*partition{p}
	return ix
}

// newExecutor publishes a built or opened index's first state and returns its
// live handle.
func newExecutor(ix *valueIndex, st *state) *executor {
	ix.snap.Store(st)
	return &executor{valueIndex: ix, pinned: pinned{live: &ix.shell}}
}

// AcquireSnapshot implements Engine.
func (e *executor) AcquireSnapshot() Engine {
	return &executor{valueIndex: e.valueIndex, pinned: e.snapshot()}
}

// FetchCells implements Engine.
func (e *executor) FetchCells(ctx context.Context, tb *obs.TraceBuilder, ids []uint64, visit func(*field.Cell) bool) (storage.Stats, error) {
	return e.fetchCells(ctx, e.partition, tb, ids, visit)
}

// Tiles implements Engine: a single-partition index has none.
func (e *executor) Tiles() []TileInfo { return nil }

// Stats implements Index.
func (e *executor) Stats() IndexStats {
	s := e.statsAt(e.cur())
	s.Method = e.Method()
	return s
}

func (p *partition) statsAt(st *state) IndexStats {
	s := IndexStats{Cells: p.cells, CellPages: p.heap.NumPages()}
	if st.tree != nil {
		s.IndexPages, s.TreeHeight = st.tree.PersistedNodes(), st.tree.Height()
		s.Groups = p.cells // one entry per cell, unless the tree indexes subfields
	}
	if st.groups != nil {
		s.Groups = len(st.groups)
	}
	if p.sidecar != nil {
		s.SidecarPages = p.sidecar.NumPages()
	}
	return s
}

// probe is one call of a candidates hook: what to search and charge, and the
// candidates found. Probes are pooled; pos, sel and the probe itself are
// reused across queries, so the filter step allocates nothing that grows with
// the candidate count in steady state.
type probe struct {
	ctx context.Context
	qc  *storage.QueryCtx
	q   geom.Interval
	// traced has the hook open its filter spans on qc. Solo queries and batch
	// members do; a tile scan runs under its planner's tile-scan span instead.
	traced bool

	pos  []int32   // ascending heap positions (byPos methods)
	runs []pageRun // merged page-index runs (the others); none = nothing to refine
	// fetched presets Result.CellsFetched where the filter itself tested
	// every cell interval; groups is Result.CandidateGroups.
	fetched int
	groups  int
	// filter is the index-search I/O of the filter step and sidecarReads the
	// reads a sidecar pass served: recordIO's attribution.
	filter       storage.Stats
	sidecarReads int

	before storage.Stats // qc's activity when the open step began
	sel    []int         // tree-visit scratch
}

var probePool = sync.Pool{New: func() any { return new(probe) }}

func getProbe() *probe { return probePool.Get().(*probe) }

func putProbe(pr *probe) {
	pr.ctx, pr.qc = nil, nil
	probePool.Put(pr)
}

// reset readies the probe for one hook call, keeping its buffers.
func (pr *probe) reset(ctx context.Context, qc *storage.QueryCtx, q geom.Interval, traced bool) {
	*pr = probe{ctx: ctx, qc: qc, q: q, traced: traced, pos: pr.pos[:0], sel: pr.sel[:0]}
}

// begin opens one step of the filter under phase ph; end closes it and returns
// what the step read.
func (pr *probe) begin(ph obs.Phase) {
	pr.before = pr.qc.LocalStats()
	if pr.traced {
		pr.qc.BeginSpan(ph)
	}
}

func (pr *probe) end() storage.Stats {
	if pr.traced {
		pr.qc.EndSpan()
	}
	return pr.qc.LocalStats().Sub(pr.before)
}

// Query implements Index: Step 1 (filter) asks the method for candidates —
// survivors of a sidecar pass, the cells of a per-cell tree search, or the
// page runs of the subfields a subfield tree selected, merged so shared
// boundary pages are read once; Step 2 (estimation) fetches them and computes
// the exact answer regions.
func (e *executor) Query(q geom.Interval) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext implements Engine: ctx is polled inside the filter pass,
// before each page run (each work item, on the parallel path) and at the
// fetch loops' strides, so a canceled query returns ctx's error mid-pipeline
// without leaking workers (the pool always joins).
func (e *executor) QueryContext(ctx context.Context, q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	tb, start := e.startQuery(e.label, obs.KindValue, q.Lo, q.Hi)
	st := e.pinState()
	res, err := e.queryAt(st, ctx, tb, q)
	e.unpin(st)
	e.endQuery(tb, start, err)
	return res, err
}

// queryAt is the value-query pipeline against one pinned state. The caller
// must hold a pin at st.epoch for the duration of the call.
func (e *executor) queryAt(st *state, ctx context.Context, tb *obs.TraceBuilder, q geom.Interval) (*Result, error) {
	// Per-query context: cold-start accounting with within-query page reuse
	// (the paper's warm-OS-cache setting) no matter what runs concurrently.
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	pr := getProbe()
	defer putProbe(pr)
	pr.reset(ctx, qc, q, true)
	if err := e.candidates(st, pr); err != nil {
		return nil, err
	}
	res := &Result{Query: q, CandidateGroups: pr.groups, CellsFetched: pr.fetched}
	// A run-based filter that selected nothing ends the query there: no
	// refinement span, filter-only I/O.
	if e.byPos || len(pr.runs) > 0 {
		qc.BeginSpan(obs.PhaseRefine)
		var err error
		if e.byPos {
			// Ascending positions: the same distinct pages a scrambled visit
			// order would touch, read once each and charged sequentially
			// wherever candidates are physically adjacent.
			var n int
			n, err = fetchPositions(ctx, qc, e.rids, pr.pos, q, e.tested, &resultSink{res: res})
			res.CellsFetched += n
		} else {
			err = e.refineRuns(ctx, qc, pr.runs, res)
		}
		if err != nil {
			return nil, err
		}
		qc.EndSpan()
	}
	res.IO = qc.Stats()
	e.recordIO(pr.filter, pr.sidecarReads, res.IO)
	return res, nil
}

// refineRuns scans the candidate runs into res: in order on qc, or — with
// SetWorkers > 1 and more than one run — whole runs scattered on the worker
// pool.
func (e *executor) refineRuns(ctx context.Context, qc *storage.QueryCtx, runs []pageRun, res *Result) error {
	workers := e.fanout(len(runs))
	if workers == 1 {
		n, err := scanRuns(ctx, qc, e.heap, runs, res.Query, &resultSink{res: res})
		res.CellsFetched += n
		return err
	}
	partials := make([]*Result, len(runs))
	err := e.scatter(ctx, qc, workers, len(runs), func(i int, child *storage.QueryCtx) error {
		part := &Result{Query: res.Query}
		n, err := scanRuns(ctx, child, e.heap, runs[i:i+1], res.Query, &resultSink{res: part})
		part.CellsFetched = n
		partials[i] = part
		return err
	})
	if err != nil {
		return err
	}
	// Partial results are folded back in run order, and the area is
	// re-accumulated as the same left-to-right fold the sequential path
	// performs — so Regions, Area and Stats are all byte-identical.
	for _, part := range partials {
		res.CellsFetched += part.CellsFetched
		res.CellsMatched += part.CellsMatched
		res.MatchedCellArea += part.MatchedCellArea
		res.Regions = append(res.Regions, part.Regions...)
		res.Isolines = append(res.Isolines, part.Isolines...)
	}
	for _, pg := range res.Regions {
		res.Area += pg.Area()
	}
	return nil
}
