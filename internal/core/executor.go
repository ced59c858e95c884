package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// valueIndex is everything one built value index owns, shared by its live
// executor and every snapshot of it.
type valueIndex struct {
	method Method
	pager  *storage.Pager
	heap   *storage.HeapFile
	// rids maps heap position to record id (nil for a file saved without a
	// sidecar); sidecar is the packed interval segment (nil when disabled).
	rids    []storage.RID
	sidecar *storage.IntervalSidecar
	cells   int
	// workers bounds the goroutines refining page runs; 0 or 1 keeps a query
	// single-threaded.
	workers int
	// snap is the current MVCC state. Readers load it once, pin its epoch and
	// run entirely against it; an update batch publishes a fresh state only
	// after committing its page overlays, so no reader ever observes a
	// half-updated index. updMu serializes updaters; readers never take it.
	snap  atomic.Pointer[state]
	updMu sync.Mutex
	observed

	// The two hooks a method is. candidates fills pr with the cells that can
	// match pr.q — positions when byPos, page runs otherwise. maintain returns
	// the state after an update batch whose interval-changing cells are ch,
	// with the R*-tree pages it persisted and whether it re-cut the partition;
	// nil where a method has no structure to maintain.
	candidates func(st *state, pr *probe) error
	maintain   func(stage *overlayStage, f field.Field, cur *state, ch *changes) (next *state, indexPages int, regrouped bool, err error)
	byPos      bool
	// tested marks the one filter that tests every cell interval itself — a
	// scan's sidecar pass: its positions are survivors, not candidates, and a
	// batch can share the pass across members.
	tested bool

	// order is the heap-file cell order of a partitioned method (nil in
	// natural order, where heap position == cell id). cost and maxSize
	// reproduce the build's partitioning rule so an update batch can re-derive
	// the group boundaries (the §3 cost bound); ivs is the current cell
	// interval per heap position and posOf maps cell id to heap position, both
	// hydrated by the first update that needs them.
	order   []field.CellID
	cost    subfield.CostModel
	maxSize float64
	ivs     []geom.Interval
	posOf   map[field.CellID]int

	// The field summary of the aggregate tier: its contiguous page run
	// (sumPages == 0 when absent: such an index answers aggregates exactly)
	// and each cell's planar area in heap order (nil for file-opened indexes;
	// when present, update batches refit the summary instead of widening its
	// certified slack).
	sumFirst storage.PageID
	sumPages int
	areas    []float64

	// The I-Auto planner: the estimated matched-cell fraction above which it
	// scans, and its decision counters.
	scanThreshold              float64
	scanQueries, filterQueries atomic.Int64
}

// state is one epoch's immutable view of an index structure, each part nil
// where the method has none. A state is never mutated after snap.Store
// publishes it; updates build a whole new one.
type state struct {
	epoch  uint64
	tree   *rstar.Tree // per cell (I-All) or per subfield
	groups []groupMeta // subfields, in partition order
	hist   *autoHist   // the planner's selectivity histogram
}

// executor answers value queries over one valueIndex: live at whatever state
// is current, or — as a snapshot — at the state it pinned. Every operation is
// written once against a pinned state, so a snapshot needs no code of its own.
type executor struct {
	*valueIndex
	pin  *state
	once sync.Once // guards a snapshot's unpin
}

// The exported index types are the same executor; they differ in the hooks
// their Build function binds.
type (
	// LinearScan is the no-index baseline: every query tests every cell
	// interval. With the interval sidecar (the default) the test runs over
	// the packed sidecar pages — a sequential scan more than an order of
	// magnitude shorter than the cell pages — and only the pages holding
	// matching cells are read from the heap file; without it, every cell page
	// is scanned.
	LinearScan struct{ *executor }
	// IAll is the straightforward indexing baseline of §3: the interval of
	// every individual cell is stored in a 1-D R*-tree. The tree is large and
	// its similar, heavily overlapping intervals make the filter step
	// expensive; each candidate cell is then fetched with its own (typically
	// random) page access. The paper shows this can be slower than LinearScan
	// at high query selectivity (Figure 11.a).
	IAll struct{ *executor }
	// Partitioned is a subfield-based value index: cells are stored in a heap
	// file in partition order (each subfield a contiguous run of pages) and
	// the subfield intervals are indexed in a 1-D R*-tree. I-Hilbert, I-Quad
	// and I-Threshold are Partitioned indexes that differ only in how the
	// partition was formed.
	Partitioned struct{ *executor }
	// Auto is I-Hilbert behind a selectivity planner (see MethodAuto).
	Auto struct{ *executor }
)

// newExecutor wraps a built index and binds its method's hooks.
func newExecutor(ix *valueIndex, st *state) *executor {
	ix.snap.Store(st)
	switch ix.method {
	case MethodLinearScan:
		ix.candidates = ix.heapCandidates
		if ix.sidecar != nil {
			ix.candidates, ix.byPos, ix.tested = ix.sidecarCandidates, true, true
		}
	case MethodIAll:
		ix.candidates, ix.maintain, ix.byPos = ix.cellCandidates, ix.maintainCells, true
	case MethodAuto:
		ix.candidates, ix.maintain = ix.planCandidates, ix.maintainPlanned
	default:
		ix.candidates, ix.maintain = ix.groupCandidates, ix.maintainGroups
	}
	return &executor{valueIndex: ix}
}

// cur returns the state operations run against.
func (e *executor) cur() *state {
	if e.pin != nil {
		return e.pin
	}
	return e.snap.Load()
}

// pinState pins the epoch of the state to run against, retrying across the
// narrow window where an update batch has committed a new epoch (retiring the
// loaded one) but not yet published its state. The returned release must be
// called exactly once; while the pin is held, beginQueryAt at the state's
// epoch cannot fail.
func (e *executor) pinState() (*state, func()) {
	for {
		s := e.cur()
		if e.pager.PinEpoch(s.epoch) {
			return s, func() { e.pager.UnpinEpoch(s.epoch) }
		}
		if e.pin != nil {
			panic("core: snapshot used after Close")
		}
		runtime.Gosched()
	}
}

// beginQueryAt opens a query context pinned at epoch. The caller must already
// hold its own pin at that epoch, which makes the underlying BeginQueryAt
// infallible: a held pin keeps the epoch at or above the compaction low-water
// mark, so a second pin at the same epoch always succeeds.
func beginQueryAt(pager *storage.Pager, epoch uint64) *storage.QueryCtx {
	qc, ok := pager.BeginQueryAt(epoch)
	if !ok {
		panic("core: snapshot epoch compacted away under an active pin")
	}
	return qc
}

// AcquireSnapshot implements Engine.
func (e *executor) AcquireSnapshot() Engine {
	st, _ := e.pinState()
	return &executor{valueIndex: e.valueIndex, pin: st}
}

// Epoch implements Engine.
func (e *executor) Epoch() uint64 { return e.cur().epoch }

// Close releases a snapshot's pin; on the live index it releases the
// underlying store — the database file of an OpenFile index, a no-op for
// in-memory builds.
func (e *executor) Close() error {
	if e.pin == nil {
		return e.pager.Close()
	}
	e.once.Do(func() { e.pager.UnpinEpoch(e.pin.epoch) })
	return nil
}

// SetWorkers bounds the worker pool that parallelizes the refinement step
// across page runs. One run is one sequential-I/O unit, so the answer regions
// and the per-query accounting are identical to the single-threaded run. Call
// before issuing queries; it is not synchronized with queries in flight.
func (e *executor) SetWorkers(n int) { e.workers = clampWorkers(n) }

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (e *executor) SetObserver(ob obs.Observer) { e.setObs(ob, string(e.method)) }

// Method implements Index.
func (e *executor) Method() Method { return e.method }

// unwrap names the executor inside any of the exported index types.
func (e *executor) unwrap() *executor { return e }

// Tiles implements Engine: a single-partition index has none.
func (e *executor) Tiles() []TileInfo { return nil }

// Stats implements Index.
func (e *executor) Stats() IndexStats { return e.statsAt(e.cur()) }

func (ix *valueIndex) statsAt(st *state) IndexStats {
	s := IndexStats{Method: ix.method, Cells: ix.cells, CellPages: ix.heap.NumPages()}
	if st.tree != nil {
		s.IndexPages, s.TreeHeight = st.tree.PersistedNodes(), st.tree.Height()
		s.Groups = ix.cells // one entry per cell, unless the tree indexes subfields
	}
	if st.groups != nil {
		s.Groups = len(st.groups)
	}
	if ix.sidecar != nil {
		s.SidecarPages = ix.sidecar.NumPages()
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
	tb, start := e.startQuery(string(e.method), obs.KindValue, q.Lo, q.Hi)
	st, release := e.pinState()
	res, err := e.queryAt(st, ctx, tb, q)
	release()
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
// SetWorkers > 1 and more than one run — whole runs on a bounded worker pool,
// each worker on its own forked context.
func (e *executor) refineRuns(ctx context.Context, qc *storage.QueryCtx, runs []pageRun, res *Result) error {
	workers := clampWorkers(e.workers)
	if workers <= 1 || len(runs) < 2 {
		n, err := scanRuns(ctx, qc, e.heap, runs, res.Query, &resultSink{res: res})
		res.CellsFetched += n
		return err
	}
	// Partial results are folded back in run order, and the area is
	// re-accumulated as the same left-to-right fold the sequential path
	// performs — so Regions, Area and Stats are all byte-identical. Per-item
	// busy time is measured only when a metrics registry is installed, keeping
	// the unobserved path timing-free.
	timed := e.ob.Metrics != nil
	var wallStart time.Time
	var busy atomic.Int64
	if timed {
		wallStart = time.Now()
	}
	partials := make([]*Result, len(runs))
	ctxs := make([]*storage.QueryCtx, len(runs))
	err := parallelDoCtx(ctx, workers, len(runs), func(i int) error {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		child := qc.Fork()
		part := &Result{Query: res.Query}
		n, err := scanRuns(ctx, child, e.heap, runs[i:i+1], res.Query, &resultSink{res: part})
		if err != nil {
			return err
		}
		part.CellsFetched = n
		partials[i] = part
		ctxs[i] = child
		if timed {
			busy.Add(int64(time.Since(t0)))
		}
		return nil
	})
	if timed {
		e.ob.Metrics.RecordWorkers(len(runs), time.Duration(busy.Load()), time.Since(wallStart))
	}
	if err != nil {
		return err
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
	return nil
}
