package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// This file implements the shared-scan batch executor: K concurrent value
// queries execute as one scan instead of K. A single filter pass evaluates
// every member's predicate (one comparison loop over the sidecar columns for
// LinearScan; per-member tree searches for the indexed families, whose
// filter I/O cannot be shared), the members' candidate page runs are merged
// and deduplicated into maximal sequential runs fetched once, and each
// decoded cell is demultiplexed to every member whose interval it satisfies.
//
// Two accounting planes coexist:
//
//   - Attributed (per member): each member's Result.IO must be byte-identical
//     to its solo execution. The data moves through one unpublished batch
//     context, while each member replays its exact solo page-charge sequence
//     on its own QueryCtx (ChargePage/ChargeRun) — same ids, same order, so
//     sequential/random classification, cache hits and the simulated clock
//     all come out identical. Successful members publish via Stats() as solo
//     queries do, preserving the pager-totals == sum-of-published invariant.
//   - Physical (per batch): what the batch actually read — the shared
//     deduplicated fetch plus the per-member filter searches. The batch
//     context never publishes (only LocalStats), so physical reads never
//     double-count into pager totals. physical + saved = Σ attributed,
//     exact when no member fails mid-batch.
//
// Demultiplexing preserves each member's solo fold order — union pages are
// visited in ascending order and every member's positions/runs ascend with
// them — so Regions, Isolines, Area (a float fold, order-sensitive) and all
// counters are byte-identical to solo execution. Each member carries its own
// context: cancellation kills that member alone (its partial charges stay
// unpublished, as on a solo error path) and the scan stops early only when
// every member is dead.

// BatchQuery is one member of a shared-scan batch: the query interval plus
// the caller's own context, polled independently so one member's
// cancellation never disturbs the rest of the batch, and the sink the member
// refines into — so one batch can mix geometry and measure members.
type BatchQuery struct {
	Ctx   context.Context
	Query geom.Interval
	// Measure refines the member into the measure sink: its result is
	// MeasureContext's rather than QueryContext's.
	Measure bool
}

// BatchResult is one member's outcome — exactly what the member's solo
// QueryContext (or MeasureContext) call would have returned.
type BatchResult struct {
	Res *Result
	Err error
}

// BatchStats summarizes the shared execution of one batch.
type BatchStats struct {
	// Size is the number of member queries.
	Size int
	// Physical is the I/O the batch actually performed: the deduplicated
	// shared fetch plus the members' filter-step searches.
	Physical storage.Stats
	// AttributedReads is the sum of the members' attributed (as-if-solo)
	// page reads.
	AttributedReads int
	// PagesSaved is AttributedReads - Physical.Reads (clamped at 0): the
	// reads the coalescing avoided. Exact when every member succeeds; a
	// member failing mid-batch leaves its attributed count partial.
	PagesSaved int
}

// batchMember is the per-member execution state inside one QueryBatch call.
type batchMember struct {
	ctx     context.Context
	q       geom.Interval
	measure bool              // the member refines into the measure sink
	qc      *storage.QueryCtx // attributed accounting, replayed charges
	tb      *obs.TraceBuilder
	start   time.Time
	res     *Result
	s       *stream // the member's survivors, refined; gather folds them into res
	err     error
	started bool // startQuery ran (false only for empty-interval members)

	pos  []int32   // survivor/candidate positions (position-based demux)
	runs []pageRun // merged page-index runs (run-based demux)
	cur  int       // demux cursor into pos or runs

	filter       storage.Stats // filter-step snapshot (indexed families)
	sidecarReads int           // sidecar portion of the reads (LinearScan)
}

// live reports whether the member is still participating in the batch.
func (m *batchMember) live() bool { return m.started && m.err == nil }

// beginMembers validates and opens every member: trace, metrics clock, and
// the attributed per-query context, every one pinned at the batch's single
// epoch so all members read the same MVCC snapshot (the caller holds the
// batch-level pin for the duration of the batch). Empty intervals fail
// without starting a trace, matching solo QueryContext, which rejects them
// before startQuery; already-canceled contexts fail after it, matching solo,
// which notices the cancellation mid-pipeline and meters a canceled query.
func (o *observed) beginMembers(method string, pager *storage.Pager, epoch uint64, members []BatchQuery) []batchMember {
	ms := make([]batchMember, len(members))
	for i, bq := range members {
		m := &ms[i]
		m.ctx = bq.Ctx
		if m.ctx == nil {
			m.ctx = context.Background()
		}
		m.q, m.measure = bq.Query, bq.Measure
		if m.q.IsEmpty() {
			m.err = errEmptyQuery
			continue
		}
		m.tb, m.start = o.startQuery(method, obs.KindValue, m.q.Lo, m.q.Hi)
		m.started = true
		m.qc = beginQueryAt(pager, epoch)
		m.qc.AttachTrace(m.tb)
		m.res = &Result{Query: m.q}
		if err := m.ctx.Err(); err != nil {
			m.err = err
		}
	}
	return ms
}

// finishMembers closes every member and assembles the per-member results.
// Successful members publish their attributed stats — res.IO = qc.Stats(),
// the publish-once step that keeps pager totals equal to the sum of
// published per-query stats — and fold into the metrics registry exactly as
// solo runs do. Failed members leave their partial charges unpublished,
// matching solo error paths. Every member's context then goes back to the
// pool, as a solo query's does. The returned attributed total sums every
// member's local reads (partial for failed members) — the baseline the
// batch's savings are measured against.
func (o *observed) finishMembers(ms []batchMember) ([]BatchResult, int) {
	out := make([]BatchResult, len(ms))
	attributed := 0
	for i := range ms {
		m := &ms[i]
		if m.qc != nil {
			attributed += m.qc.LocalStats().Reads
		}
		if m.err != nil {
			if m.started {
				o.endQuery(m.tb, m.start, m.err)
			}
			if m.qc != nil {
				m.qc.Recycle()
				m.qc = nil
			}
			out[i] = BatchResult{Err: m.err}
			continue
		}
		m.qc.EndSpan()
		m.res.IO = m.qc.Stats()
		m.qc.Recycle()
		m.qc = nil
		o.recordIO(m.filter, m.sidecarReads, m.res.IO)
		o.endQuery(m.tb, m.start, nil)
		out[i] = BatchResult{Res: m.res}
	}
	return out, attributed
}

// batchObs is the batch-level observability state of one QueryBatch call.
type batchObs struct{ tb *obs.TraceBuilder }

// startBatch opens the KindBatch trace over the members' covering interval
// and its batch-fetch span (closed by endBatch with the physical counts).
func (o *observed) startBatch(method string, members []BatchQuery) batchObs {
	lo, hi := members[0].Query.Lo, members[0].Query.Hi
	for _, bq := range members[1:] {
		lo = math.Min(lo, bq.Query.Lo)
		hi = math.Max(hi, bq.Query.Hi)
	}
	tb := obs.Begin(o.ob.Tracer, method, obs.KindBatch, lo, hi)
	tb.BeginSpan(obs.PhaseBatchFetch, obs.PageCounts{})
	return batchObs{tb: tb}
}

// endBatch closes the batch trace — the batch-fetch span carries the shared
// fetch's physical counts, a trailing filter span aggregates the members'
// tree searches, so the trace IO equals the batch's total physical I/O —
// and folds the batch into the metrics registry.
func (o *observed) endBatch(bo batchObs, size int, shared, filters storage.Stats, attributed int) BatchStats {
	bo.tb.EndSpan(shared.PageCounts())
	if filters != (storage.Stats{}) {
		bo.tb.BeginSpan(obs.PhaseFilter, shared.PageCounts())
		bo.tb.EndSpan(shared.Add(filters).PageCounts())
	}
	bo.tb.Finish(nil)
	physical := shared.Add(filters)
	saved := attributed - physical.Reads
	if saved < 0 {
		saved = 0
	}
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordBatch(size, int64(physical.Reads), int64(saved))
	}
	return BatchStats{Size: size, Physical: physical, AttributedReads: attributed, PagesSaved: saved}
}

// sequentialBatch executes members one by one through the solo pipeline —
// the group-of-one case of the admission window, and the fallback of modes
// with nothing to coalesce — then records a zero-savings batch. Like a shared
// scan, each member refines on one core: a batch holds one core.
func (e *engine) sequentialBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	out := make([]BatchResult, len(members))
	var phys storage.Stats
	for i, bq := range members {
		ctx := bq.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		res, err := e.query(ctx, bq.Query, bq.Measure, 1)
		out[i] = BatchResult{Res: res, Err: err}
		if err == nil {
			phys = phys.Add(res.IO)
		}
	}
	if e.ob.Metrics != nil {
		e.ob.Metrics.RecordBatch(len(members), int64(phys.Reads), 0)
	}
	return out, BatchStats{Size: len(members), Physical: phys, AttributedReads: phys.Reads}
}

// pollMembers checks every live member's context, marking newly canceled
// ones with their context's error, and returns how many remain live.
func pollMembers(ms []batchMember) int {
	live := 0
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		if err := m.ctx.Err(); err != nil {
			m.err = err
			continue
		}
		live++
	}
	return live
}

// failLive marks every still-live member with the shared fetch's error —
// each would have hit the same storage error solo.
func failLive(ms []batchMember, err error) {
	for i := range ms {
		if m := &ms[i]; m.live() {
			m.err = err
		}
	}
}

// appendPosRuns appends the page runs of one member's ascending survivor
// positions to dst, using fetchPositions' exact run-extension rule — next
// survivor on the same page or the page immediately after — so every page
// of a run holds a survivor.
func appendPosRuns(dst []physRun, heap *storage.HeapFile, pos []int32) []physRun {
	at, pages := heap.Cursor(), heap.Pages()
	from := len(dst)
	for _, p := range pos {
		pg := pages[at.Page(int(p))]
		if n := len(dst); n > from && (pg == dst[n-1].last || pg == dst[n-1].last+1) {
			dst[n-1].last = pg
			continue
		}
		dst = append(dst, physRun{pg, pg})
	}
	return dst
}

// chargePositions replays the attributed accounting of a solo
// fetchPositions over the same survivor positions: the distinct pages in
// ascending order. Within fetchPositions' run-extension rule every run page
// holds a survivor, so solo's per-run ReadRun charges exactly the distinct
// survivor pages in ascending order — the two charge sequences are
// identical, id for id.
func chargePositions(qc *storage.QueryCtx, heap *storage.HeapFile, pos []int32) {
	at, pages := heap.Cursor(), heap.Pages()
	last := -1
	for _, p := range pos {
		if pi := at.Page(int(p)); pi != last {
			qc.ChargePage(pages[pi])
			last = pi
		}
	}
}

// chargeRuns replays the attributed accounting of solo scanRun calls over
// the member's merged page-index runs: every page of every run in order,
// exactly what ScanPagesCtx charges whether it takes the run fast path or
// the per-page one.
func chargeRuns(qc *storage.QueryCtx, pages []storage.PageID, runs []pageRun) {
	for _, r := range runs {
		for pi := r.first; pi <= r.last; pi++ {
			qc.ChargePage(pages[pi])
		}
	}
}

// demuxPositions is the shared refinement of the position-based methods: the
// union runs are fetched once through phys, and each record is offered to
// every member holding that position, in ascending position order — each
// member's fold order is exactly its solo fetchPositions order, and each
// distinct record is decoded once no matter how many members take it. tested
// selects the sidecar semantics (positions already passed the interval test:
// every holder takes the record) over the I-All candidate semantics (count,
// test the partial decode, take it only on a match).
func demuxPositions(phys *storage.QueryCtx, heap *storage.HeapFile, ms []batchMember, union []physRun, tested bool) {
	var sv survivor
	processed := 0
	for _, ur := range union {
		if pollMembers(ms) == 0 {
			return
		}
		err := phys.ReadRun(ur.first, ur.last, func(id storage.PageID, page []byte) bool {
			start, end := heap.PageSpan(heap.PageIndex(id))
			for {
				// The lowest unconsumed position on this page across members:
				// those before the page's end, since member cursors never lag
				// behind the page being served — union pages ascend and every
				// member page is a union page.
				best := int32(-1)
				for i := range ms {
					m := &ms[i]
					if !m.live() || m.cur >= len(m.pos) || int(m.pos[m.cur]) >= end {
						continue
					}
					if best < 0 || m.pos[m.cur] < best {
						best = m.pos[m.cur]
					}
				}
				if best < 0 {
					return true
				}
				rec, recErr := storage.RecordInPage(page, uint16(int(best)-start))
				sv.reset(rec)
				for i := range ms {
					m := &ms[i]
					if !m.live() || m.cur >= len(m.pos) || m.pos[m.cur] != best {
						continue
					}
					m.cur++
					if recErr != nil {
						m.err = recErr
						continue
					}
					if !tested {
						hit, ok := field.RecordIntersects(rec, m.q)
						if !ok {
							_, m.err = field.CellIntervalFromRecord(rec)
							continue
						}
						m.res.CellsFetched++
						if !hit {
							continue
						}
					}
					m.err = m.s.add(&sv)
				}
				processed++
				if processed%fetchCancelStride == 0 {
					if pollMembers(ms) == 0 {
						return false
					}
				}
			}
		})
		if err != nil {
			failLive(ms, err)
			return
		}
	}
}

// demuxRuns is the shared refinement of the run-based methods: the union of
// the members' merged page-index runs is scanned once through phys, and each
// record is folded into every member whose own runs cover its page — exactly
// what a solo scanRuns performs, page by page through the same record test,
// with the full decode done once per record regardless of how many members
// take it.
func demuxRuns(phys *storage.QueryCtx, heap *storage.HeapFile, ms []batchMember, union []pageRun, covered []bool) {
	var sv survivor
	var slotErr error
	processed := 0
	err := heap.ScanRunsCtx(phys, len(union), func(i int) (int, int, error) {
		if pollMembers(ms) == 0 {
			return 0, 0, errBatchDead
		}
		return union[i].first, union[i].last, nil
	}, func(id storage.PageID, page []byte) bool {
		pi := heap.PageIndex(id)
		for i := range ms {
			m := &ms[i]
			covered[i] = false
			if !m.live() {
				continue
			}
			for m.cur < len(m.runs) && m.runs[m.cur].last < pi {
				m.cur++
			}
			covered[i] = m.cur < len(m.runs) && m.runs[m.cur].first <= pi
		}
		n, err := storage.PageSlots(page)
		for slot := 0; slot < n && err == nil; slot++ {
			rec, ok := storage.SlotRecord(page, slot)
			if !ok {
				_, err = storage.RecordInPage(page, uint16(slot))
				break
			}
			sv.reset(rec)
			for i := range ms {
				m := &ms[i]
				if !covered[i] || m.err != nil {
					continue
				}
				hit, ok := field.RecordIntersects(rec, m.q)
				if !ok {
					_, m.err = field.CellIntervalFromRecord(rec)
					continue
				}
				m.res.CellsFetched++
				if hit {
					m.err = m.s.add(&sv)
				}
			}
			processed++
			if processed%scanCancelStride == 0 && pollMembers(ms) == 0 {
				return false
			}
		}
		slotErr = err
		return err == nil
	})
	if err == nil {
		err = slotErr
	}
	if err != nil {
		failLive(ms, err)
	}
}

// errBatchDead ends a shared scan once every member has failed; failLive then
// has no member left to mark.
var errBatchDead = errors.New("core: no live batch member")

// QueryBatch implements Engine — the one batch driver. Every member's
// candidates are found on the member's own context (the filter I/O of a tree
// search is not shareable across different intervals; a sidecar pass is, so a
// sidecar-served scan evaluates all K predicates in one physical pass
// instead), each member replays the exact page-charge sequence of its solo
// fetch, and the union of the members' positions or runs is fetched once and
// demultiplexed — tile by tile in a tiled store, whose tiles share a scan only
// when they are sidecar-served scans. Member results — including Result.IO —
// are byte-identical to solo QueryContext or MeasureContext calls; a batch of
// one, or one with nothing to share, takes the solo path itself. Either way
// the batch runs on the calling goroutine alone and counts as one executing
// query.
func (e *engine) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	if len(members) == 0 {
		return nil, BatchStats{}
	}
	tiled := e.tileSide != 0
	if len(members) == 1 || (tiled && !e.parts[0].tested) {
		return e.sequentialBatch(members)
	}
	executing.Add(1)
	defer executing.Add(-1)
	st := e.pinState()
	defer e.unpin(st)
	bo := e.startBatch(e.label, members)
	ms := e.beginMembers(e.label, e.pager, st.epoch, members)
	phys := beginQueryAt(e.pager, st.epoch)
	defer phys.Recycle()
	bb := getBatchBuf(len(members))
	defer putBatchBuf(bb)
	for i := range ms {
		ms[i].s = &bb.streams[i]
		ms[i].s.q, ms[i].s.measure = ms[i].q, ms[i].measure
	}
	var filters storage.Stats
	if tiled {
		e.batchTiles(st, ms, phys, bb)
	} else {
		filters = e.batchPartition(st, ms, phys, bb)
	}
	results, attributed := e.finishMembers(ms)
	return results, e.endBatch(bo, len(members), phys.LocalStats(), filters, attributed)
}

// batchPartition runs the shared scan of a one-partition store over the live
// members and returns their summed filter I/O.
func (e *engine) batchPartition(st *state, ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) storage.Stats {
	p := e.parts[0]
	var filters storage.Stats
	if p.tested {
		p.sharedCandidates(ms, phys, bb)
	} else {
		filters = p.memberCandidates(st.parts[0], ms, bb)
	}
	// Attributed replay: each live member opens its refinement span and
	// charges its solo fetch, page for page. A run-based filter that selected
	// nothing publishes as solo's early return does (no refine span,
	// filter-only IO).
	pages := p.heap.Pages()
	for i := range ms {
		m := &ms[i]
		if !m.live() || (!p.byPos && len(m.runs) == 0) {
			continue
		}
		m.qc.BeginSpan(obs.PhaseRefine)
		if p.byPos {
			m.s.reserve(len(m.pos))
			chargePositions(m.qc, p.heap, m.pos)
			bb.prs = appendPosRuns(bb.prs, p.heap, m.pos)
		} else {
			chargeRuns(m.qc, pages, m.runs)
			bb.union = append(bb.union, m.runs...)
		}
	}
	if p.byPos {
		demuxPositions(phys, p.heap, ms, mergeRuns(bb.prs), p.tested)
	} else {
		demuxRuns(phys, p.heap, ms, mergeRuns(bb.union), bb.cov)
	}
	// Each member's stream holds its survivors in its solo fetch order: one
	// partial, gathered as solo gathers its sequential fetch.
	for i := range ms {
		if m := &ms[i]; m.live() {
			gather(m.res, []partial{m.s.since(streamMark{})})
		}
	}
	return filters
}

// memberCandidates runs the method's candidates hook once per live member,
// on the member's own context and under its own trace, and returns the
// members' summed filter I/O.
func (p *partition) memberCandidates(st *partState, ms []batchMember, bb *batchBuf) storage.Stats {
	var filters storage.Stats
	pr := getProbe()
	ownPos, ownRuns := pr.pos, pr.runs
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		// The member's positions and runs outlive the probe: they land in the
		// batch's own pooled buffers.
		pr.pos, pr.runs = bb.pos[i], bb.runs[i]
		pr.reset(m.ctx, m.qc, m.q, true)
		err := p.candidates(st, pr)
		bb.pos[i], bb.runs[i] = pr.pos, pr.runs
		if err != nil {
			m.err = err
			continue
		}
		m.pos, m.runs, m.filter = pr.pos, pr.runs, pr.filter
		m.res.CandidateGroups, m.res.CellsFetched = pr.groups, pr.fetched
		filters = filters.Add(pr.filter)
	}
	pr.pos, pr.runs = ownPos, ownRuns
	putProbe(pr)
	return filters
}

// sharedCandidates is the batch filter of a sidecar-served scan, the one
// method whose filter pass is shareable: one physical pass over the packed
// interval columns evaluates all K predicates per entry, and each live member
// is charged the full sidecar scan — its exact solo charge sequence.
func (p *partition) sharedCandidates(ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) {
	if pollMembers(ms) == 0 {
		return
	}
	for i := range ms {
		if m := &ms[i]; m.live() {
			m.qc.BeginSpan(obs.PhaseSidecar)
		}
	}
	if !p.filterShared(ms, nil, phys, bb) {
		return
	}
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		m.pos = bb.pos[i]
		m.sidecarReads = p.chargeSidecar(m.qc)
		m.qc.EndSpan()
		m.res.CellsFetched = p.cells
	}
}

// filterShared evaluates the predicates of the live members flagged in `in`
// (every live member when nil) in one pass over the sidecar through phys,
// leaving each one's surviving positions in bb.pos. NaN bounds keep the other
// members from accumulating positions; a member canceled mid-scan goes NaN
// too, and the scan stops early once no flagged member remains. A storage
// error fails every live member — each would have hit it solo — and reports
// false.
func (p *partition) filterShared(ms []batchMember, in []bool, phys *storage.QueryCtx, bb *batchBuf) bool {
	for i := range ms {
		bb.pos[i] = bb.pos[i][:0]
		if m := &ms[i]; m.live() && (in == nil || in[i]) {
			bb.qlo[i], bb.qhi[i] = m.q.Lo, m.q.Hi
		} else {
			bb.qlo[i], bb.qhi[i] = math.NaN(), math.NaN()
		}
	}
	err := p.sidecar.ScanRangeScratch(phys, 0, p.cells, &bb.cols, func(base int, lo, hi []float64) bool {
		field.FilterIntervalsMulti(bb.pos, int32(base), lo, hi, bb.qlo, bb.qhi)
		live := 0
		for i := range ms {
			m := &ms[i]
			if !m.live() || math.IsNaN(bb.qlo[i]) {
				continue
			}
			if cerr := m.ctx.Err(); cerr != nil {
				m.err = cerr
				bb.qlo[i], bb.qhi[i] = math.NaN(), math.NaN()
				continue
			}
			live++
		}
		return live > 0
	})
	if err != nil {
		failLive(ms, err)
	}
	return err == nil
}

// chargeSidecar replays a solo sidecar pass on a member's context — the whole
// segment as one run — and returns the reads it charged.
func (p *partition) chargeSidecar(qc *storage.QueryCtx) int {
	before := qc.LocalStats().Reads
	first := p.sidecar.FirstPage()
	qc.ChargeRun(first, first+storage.PageID(p.sidecar.NumPages()-1))
	return qc.LocalStats().Reads - before
}

// Batcher is the admission gate of a windowed database: a slot-gated group
// commit. It holds one execution slot per core (GOMAXPROCS when it was made).
// A query that arrives to a free slot takes it and runs at once, a group of
// one on the exact solo QueryContext path — an idle windowed database answers
// byte-identically to, and as fast as, one without a window. A query that
// arrives with every slot busy would have queued for a core anyway: it opens
// the pending group (and leads it) or joins it, and the group runs as one
// QueryBatch the moment a running group finishes — the finisher hands its slot
// over — or when the window expires, whichever is first. So a group grows
// exactly as large as the backlog that formed while the cores were busy, and
// the window bounds the latency the gate may add instead of charging it to
// every query. Expiry starts a group with no slot free: past saturation the
// gate degenerates to timer-driven groups, more of them running than there are
// slots, and hand-overs resume once the excess has drained.
type Batcher struct {
	idx     Engine
	window  time.Duration
	slots   int
	metrics *obs.Metrics

	mu      sync.Mutex
	running int         // groups executing now; above slots only after expiries
	pending *batchGroup // the group arrivals join, nil when none is open
}

// batchGroup is one pending group. members and late grow under the Batcher's
// mutex until the group is released (pending cleared, which closes admission);
// results is written by the leader before done is closed, which publishes it
// to the followers.
type batchGroup struct {
	members []BatchQuery
	opened  time.Time     // the leader's arrival
	late    time.Duration // Σ (follower arrival - opened)
	slot    chan struct{} // closed by the finisher that hands its slot over
	results []BatchResult
	done    chan struct{}
}

// errBatchAborted is what the followers of a group get when its leader's
// QueryBatch panicked: the panic unwinds through the leader's caller, the
// followers are released with this instead of blocking forever.
var errBatchAborted = errors.New("core: batch aborted: the group's shared scan panicked")

// NewBatcher returns a Batcher executing groups on idx, none of which waits
// longer than window for a slot. Queue counters go to metrics (nil: none).
func NewBatcher(idx Engine, window time.Duration, metrics *obs.Metrics) *Batcher {
	return &Batcher{idx: idx, window: window, slots: runtime.GOMAXPROCS(0), metrics: metrics}
}

// Query submits one query, geometry or measure as bq says: it runs at once on a
// free slot, or waits in the pending group — as its leader (the first to find
// every slot busy, who executes the batch) or as a follower — for a slot or the
// window's end. bq.Ctx cancels only this member. A canceled follower returns
// its context's error at once (its member dies inside the batch, unpublished,
// as a canceled solo query does); a canceled leader still waits and executes
// the group, so followers are never stranded — its own slot in the batch
// returns the context error.
func (b *Batcher) Query(bq BatchQuery) (*Result, error) {
	ctx := bq.Ctx
	b.mu.Lock()
	if g := b.pending; g != nil {
		i := len(g.members)
		g.members = append(g.members, bq)
		g.late += time.Since(g.opened)
		b.mu.Unlock()
		select {
		case <-g.done:
			return g.results[i].Res, g.results[i].Err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if b.running < b.slots {
		b.running++
		b.mu.Unlock()
		defer b.releaseSlot()
		b.metrics.RecordGroup(obs.ReleaseFreeSlot, 1, 0, 0)
		results, _ := b.idx.QueryBatch([]BatchQuery{bq})
		return results[0].Res, results[0].Err
	}
	g := &batchGroup{
		members: []BatchQuery{bq},
		opened:  time.Now(),
		slot:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	b.pending = g
	b.mu.Unlock()

	how := obs.ReleaseHandover
	timer := time.NewTimer(b.window)
	select {
	case <-g.slot:
		timer.Stop()
	case <-timer.C:
		b.mu.Lock()
		// A finisher may have handed its slot over while the timer fired.
		if b.pending == g {
			b.pending = nil
			b.running++
			how = obs.ReleaseExpiry
		}
		b.mu.Unlock()
	}
	// Admission is closed: members and late are final. Every member waited
	// from its arrival until now, the leader longest.
	wait := time.Since(g.opened)
	b.metrics.RecordGroup(how, len(g.members), time.Duration(len(g.members))*wait-g.late, wait)

	defer b.releaseSlot()
	defer func() {
		if g.results == nil {
			g.results = make([]BatchResult, len(g.members))
			for i := range g.results {
				g.results[i].Err = errBatchAborted
			}
		}
		close(g.done)
	}()
	g.results, _ = b.idx.QueryBatch(g.members)
	return g.results[0].Res, g.results[0].Err
}

// releaseSlot gives up the slot of a group that has finished (or panicked):
// handed to the pending group's leader when there is one, unless more groups
// are running than there are slots — then the excess an expiry admitted drains
// first and the pending group waits for the next finisher or its own expiry.
func (b *Batcher) releaseSlot() {
	b.mu.Lock()
	if g := b.pending; g != nil && b.running <= b.slots {
		b.pending = nil
		close(g.slot)
	} else {
		b.running--
	}
	b.mu.Unlock()
}
