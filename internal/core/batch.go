package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
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
// cancellation never disturbs the rest of the batch.
type BatchQuery struct {
	Ctx   context.Context
	Query geom.Interval
}

// BatchResult is one member's outcome — exactly what the member's solo
// QueryContext call would have returned.
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

// BatchQuerier is the optional capability of an Index that can execute
// several value queries as one shared scan. Member results are
// byte-identical to sequential solo QueryContext calls.
type BatchQuerier interface {
	QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats)
}

// batchMember is the per-member execution state inside one QueryBatch call.
type batchMember struct {
	ctx     context.Context
	q       geom.Interval
	qc      *storage.QueryCtx // attributed accounting, replayed charges
	tb      *obs.TraceBuilder
	start   time.Time
	res     *Result
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
		m.q = bq.Query
		if m.q.IsEmpty() {
			m.err = fmt.Errorf("core: empty query interval")
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
// matching solo error paths. The returned attributed total sums every
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
				m.qc.Release()
			}
			out[i] = BatchResult{Err: m.err}
			continue
		}
		m.qc.EndSpan()
		m.res.IO = m.qc.Stats()
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
// with nothing to coalesce — then records a zero-savings batch.
func sequentialBatch(o *observed, idx ContextQuerier, members []BatchQuery) ([]BatchResult, BatchStats) {
	out := make([]BatchResult, len(members))
	var phys storage.Stats
	for i, bq := range members {
		ctx := bq.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		res, err := idx.QueryContext(ctx, bq.Query)
		out[i] = BatchResult{Res: res, Err: err}
		if err == nil {
			phys = phys.Add(res.IO)
		}
	}
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordBatch(len(members), int64(phys.Reads), 0)
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

// physRun is one contiguous PageID range of the shared fetch.
type physRun struct{ first, last storage.PageID }

// appendPosRuns appends the page runs of one member's ascending survivor
// positions to dst, using fetchPositions' exact run-extension rule — next
// survivor on the same page or the page immediately after — so every page
// of a run holds a survivor.
func appendPosRuns(dst []physRun, rids []storage.RID, pos []int32) []physRun {
	for i := 0; i < len(pos); {
		first := rids[pos[i]].Page
		last := first
		j := i + 1
		for j < len(pos) {
			pg := rids[pos[j]].Page
			if pg != last && pg != last+1 {
				break
			}
			last = pg
			j++
		}
		dst = append(dst, physRun{first, last})
		i = j
	}
	return dst
}

// mergePhysRuns sorts PageID runs and merges overlapping or adjacent ones
// into the maximal deduplicated runs the batch fetches once.
func mergePhysRuns(runs []physRun) []physRun {
	if len(runs) == 0 {
		return runs
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

// mergePageRuns is mergeRuns' sort-and-merge step applied to an
// already-materialized page-index run list (the union of several members'
// merged runs).
func mergePageRuns(runs []pageRun) []pageRun {
	if len(runs) == 0 {
		return runs
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

// chargePositions replays the attributed accounting of a solo
// fetchPositions over the same survivor positions: the distinct pages in
// ascending order. Within fetchPositions' run-extension rule every run page
// holds a survivor, so solo's per-run ReadRun charges exactly the distinct
// survivor pages in ascending order — the two charge sequences are
// identical, id for id.
func chargePositions(qc *storage.QueryCtx, rids []storage.RID, pos []int32) {
	var last storage.PageID
	haveLast := false
	for _, p := range pos {
		pg := rids[p].Page
		if !haveLast || pg != last {
			qc.ChargePage(pg)
			last, haveLast = pg, true
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

// demuxPositions is the shared refinement of the position-based families:
// the union runs are fetched once through phys, and each surviving record
// is handed to every member holding that position, in ascending position
// order — each member's fold order is exactly its solo fetchPositions
// order, and each distinct record is decoded once no matter how many
// members hold it. prefiltered selects the LinearScan-sidecar semantics
// (positions already passed the interval test: decode + estimateMatched)
// over the I-All candidate semantics (estimateRecord: count, test the
// partial decode, full-decode only on a match).
func demuxPositions(phys *storage.QueryCtx, rids []storage.RID, ms []batchMember, union []physRun, prefiltered bool) {
	var c field.Cell
	processed := 0
	for _, ur := range union {
		if pollMembers(ms) == 0 {
			return
		}
		err := phys.ReadRun(ur.first, ur.last, func(id storage.PageID, page []byte) bool {
			for {
				// The lowest unconsumed position on this page across members;
				// member cursors never lag behind the page being served
				// because union pages ascend and every member page is a
				// union page.
				best := int32(-1)
				for i := range ms {
					m := &ms[i]
					if !m.live() || m.cur >= len(m.pos) || rids[m.pos[m.cur]].Page != id {
						continue
					}
					if best < 0 || m.pos[m.cur] < best {
						best = m.pos[m.cur]
					}
				}
				if best < 0 {
					return true
				}
				rec, recErr := storage.RecordInPage(page, rids[best].Slot)
				var iv geom.Interval
				var ivErr error
				if recErr == nil && !prefiltered {
					iv, ivErr = field.CellIntervalFromRecord(rec)
				}
				decoded := false
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
					if !prefiltered {
						if ivErr != nil {
							m.err = ivErr
							continue
						}
						m.res.CellsFetched++
						if !iv.Intersects(m.q) {
							continue
						}
					}
					if !decoded {
						if derr := field.DecodeCell(rec, &c); derr != nil {
							m.err = derr
							continue
						}
						decoded = true
					}
					estimateMatched(m.res, &c, m.q)
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

// demuxRuns is the shared refinement of the run-based families: the union
// of the members' merged page-index runs is scanned once through phys, and
// each record is folded into every member whose own runs cover its page —
// estimateRecord semantics, exactly what a solo scanRun performs, with the
// partial and full decodes done once per record regardless of how many
// members cover it.
func demuxRuns(phys *storage.QueryCtx, heap *storage.HeapFile, ms []batchMember, union []pageRun, covered []bool) {
	var c field.Cell
	processed := 0
	pi := -1
	var curID storage.PageID
	for _, ur := range union {
		if pollMembers(ms) == 0 {
			return
		}
		err := heap.ScanPagesCtx(phys, ur.first, ur.last, func(rid storage.RID, rec []byte) bool {
			if pi < 0 || rid.Page != curID {
				curID = rid.Page
				pi = heap.PageIndex(curID)
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
			}
			var iv geom.Interval
			var ivErr error
			parsed := false
			decoded := false
			for i := range ms {
				m := &ms[i]
				if !covered[i] || m.err != nil {
					continue
				}
				if !parsed {
					iv, ivErr = field.CellIntervalFromRecord(rec)
					parsed = true
				}
				if ivErr != nil {
					m.err = ivErr
					continue
				}
				m.res.CellsFetched++
				if !iv.Intersects(m.q) {
					continue
				}
				if !decoded {
					if derr := field.DecodeCell(rec, &c); derr != nil {
						m.err = derr
						continue
					}
					decoded = true
				}
				estimateMatched(m.res, &c, m.q)
			}
			processed++
			if processed%scanCancelStride == 0 {
				if pollMembers(ms) == 0 {
					return false
				}
			}
			return true
		})
		if err != nil {
			failLive(ms, err)
			return
		}
	}
}

// QueryBatch implements BatchQuerier: one sidecar pass evaluates every
// member's predicate, the union of the members' surviving heap runs is
// fetched once, and each decoded cell is demultiplexed to every member it
// satisfies. Without a sidecar the whole heap is scanned once for all
// members. Member results — including Result.IO — are byte-identical to
// solo QueryContext calls.
func (ls *LinearScan) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	if len(members) == 0 {
		return nil, BatchStats{}
	}
	if len(members) == 1 {
		return sequentialBatch(&ls.observed, ls, members)
	}
	epoch, release := pinCurrentEpoch(ls.pager)
	defer release()
	bo := ls.startBatch(string(MethodLinearScan), members)
	ms := ls.beginMembers(string(MethodLinearScan), ls.pager, epoch, members)
	phys := beginQueryAt(ls.pager, epoch)
	defer phys.Release()
	bb := getBatchBuf(len(members))
	defer putBatchBuf(bb)
	if ls.sidecar != nil {
		ls.batchSidecar(ms, phys, bb)
	} else {
		ls.batchScan(ms, phys, bb)
	}
	results, attributed := ls.finishMembers(ms)
	return results, ls.endBatch(bo, len(members), phys.LocalStats(), storage.Stats{}, attributed)
}

// batchSidecar is the sidecar-served shared pipeline of a LinearScan batch.
func (ls *LinearScan) batchSidecar(ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) {
	if pollMembers(ms) == 0 {
		return
	}
	for i := range ms {
		m := &ms[i]
		if m.live() {
			bb.qlo[i], bb.qhi[i] = m.q.Lo, m.q.Hi
			m.qc.BeginSpan(obs.PhaseSidecar)
		} else {
			bb.qlo[i], bb.qhi[i] = math.NaN(), math.NaN()
		}
	}
	// One physical pass over the packed interval columns evaluates all K
	// predicates per entry; NaN bounds keep dead members from accumulating
	// positions.
	err := ls.sidecar.ScanRange(phys, 0, ls.cells, func(base int, lo, hi []float64) bool {
		field.FilterIntervalsMulti(bb.pos, int32(base), lo, hi, bb.qlo, bb.qhi)
		live := 0
		for i := range ms {
			m := &ms[i]
			if !m.live() {
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
		return
	}
	// Attributed replay: each live member charges the full sidecar scan and
	// its own surviving heap pages — the exact solo charge sequence.
	scFirst := ls.sidecar.FirstPage()
	scLast := scFirst + storage.PageID(ls.sidecar.NumPages()-1)
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		m.pos = bb.pos[i]
		m.qc.ChargeRun(scFirst, scLast)
		m.qc.EndSpan()
		m.sidecarReads = m.qc.LocalStats().Reads
		m.res.CellsFetched = ls.cells
		m.qc.BeginSpan(obs.PhaseRefine)
		chargePositions(m.qc, ls.rids, m.pos)
	}
	union := bb.prs[:0]
	for i := range ms {
		if m := &ms[i]; m.live() {
			union = appendPosRuns(union, ls.rids, m.pos)
		}
	}
	bb.prs = union
	demuxPositions(phys, ls.rids, ms, mergePhysRuns(union), true)
}

// batchScan is the no-sidecar shared pipeline: one whole-heap scan folds
// every record into every live member, replacing K identical full scans.
func (ls *LinearScan) batchScan(ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) {
	n := ls.heap.NumPages()
	if n == 0 || pollMembers(ms) == 0 {
		return
	}
	bb.runs = append(bb.runs[:0], pageRun{first: 0, last: n - 1})
	pages := ls.heap.Pages()
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		m.runs = bb.runs
		m.qc.BeginSpan(obs.PhaseRefine)
		chargeRuns(m.qc, pages, m.runs)
	}
	demuxRuns(phys, ls.heap, ms, bb.runs, bb.cov)
}

// QueryBatch implements BatchQuerier: the filter step stays per member (K
// tree searches — index reads are not shareable across different query
// intervals), then the union of all members' sorted candidate positions is
// fetched once from the heap and demultiplexed with I-All's estimateRecord
// semantics.
func (ia *IAll) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	if len(members) == 0 {
		return nil, BatchStats{}
	}
	if len(members) == 1 {
		return sequentialBatch(&ia.observed, ia, members)
	}
	s, release := ia.pinState()
	defer release()
	bo := ia.startBatch(string(MethodIAll), members)
	ms := ia.beginMembers(string(MethodIAll), ia.pager, s.epoch, members)
	phys := beginQueryAt(ia.pager, s.epoch)
	defer phys.Release()
	bb := getBatchBuf(len(members))
	defer putBatchBuf(bb)
	var filters storage.Stats
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		sb := iallScratch.Get().(*iallBuf)
		candidates := sb.candidates[:0]
		m.qc.BeginSpan(obs.PhaseFilter)
		err := s.tree.PagedSearchCtx(m.qc, rstar.Interval1D(m.q.Lo, m.q.Hi), func(e rstar.Entry) bool {
			candidates = append(candidates, e.Data)
			return true
		})
		sb.candidates = candidates
		if err != nil {
			iallScratch.Put(sb)
			m.err = err
			continue
		}
		m.qc.EndSpan()
		m.filter = m.qc.LocalStats()
		filters = filters.Add(m.filter)
		m.res.CandidateGroups = len(candidates)
		pos := bb.pos[i][:0]
		for _, id := range candidates {
			pos = append(pos, int32(id))
		}
		iallScratch.Put(sb)
		sort.Slice(pos, func(x, y int) bool { return pos[x] < pos[y] })
		bb.pos[i] = pos
		m.pos = pos
		m.qc.BeginSpan(obs.PhaseRefine)
		chargePositions(m.qc, ia.rids, pos)
	}
	union := bb.prs[:0]
	for i := range ms {
		if m := &ms[i]; m.live() {
			union = appendPosRuns(union, ia.rids, m.pos)
		}
	}
	bb.prs = union
	demuxPositions(phys, ia.rids, ms, mergePhysRuns(union), false)
	results, attributed := ia.finishMembers(ms)
	return results, ia.endBatch(bo, len(members), phys.LocalStats(), filters, attributed)
}

// QueryBatch implements BatchQuerier: per-member tree searches select each
// member's subfield runs, the union of all merged runs is scanned once, and
// each record folds into every member whose runs cover its page — solo
// scanRun semantics per member.
func (p *Partitioned) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	if len(members) == 0 {
		return nil, BatchStats{}
	}
	if len(members) == 1 {
		return sequentialBatch(&p.observed, p, members)
	}
	s, release := p.pinState()
	defer release()
	bo := p.startBatch(string(p.method), members)
	ms := p.beginMembers(string(p.method), p.pager, s.epoch, members)
	phys := beginQueryAt(p.pager, s.epoch)
	defer phys.Release()
	bb := getBatchBuf(len(members))
	defer putBatchBuf(bb)
	var filters storage.Stats
	pages := p.heap.Pages()
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		selected := bb.sel[:0]
		m.qc.BeginSpan(obs.PhaseFilter)
		err := s.tree.PagedSearchCtx(m.qc, rstar.Interval1D(m.q.Lo, m.q.Hi), func(e rstar.Entry) bool {
			selected = append(selected, int(e.Data))
			return true
		})
		bb.sel = selected
		if err != nil {
			m.err = err
			continue
		}
		m.qc.EndSpan()
		m.filter = m.qc.LocalStats()
		filters = filters.Add(m.filter)
		m.res.CandidateGroups = len(selected)
		if len(selected) == 0 {
			// Filter-only query: finishMembers publishes it exactly as
			// solo's early return does (no refine span, filter-only IO).
			continue
		}
		m.runs = mergeGroupRuns(s.groups, selected)
		m.qc.BeginSpan(obs.PhaseRefine)
		chargeRuns(m.qc, pages, m.runs)
	}
	union := bb.runs[:0]
	for i := range ms {
		if m := &ms[i]; m.live() {
			union = append(union, m.runs...)
		}
	}
	bb.runs = union
	demuxRuns(phys, p.heap, ms, mergePageRuns(union), bb.cov)
	results, attributed := p.finishMembers(ms)
	return results, p.endBatch(bo, len(members), phys.LocalStats(), filters, attributed)
}

// Batcher groups concurrent value queries arriving within a fixed admission
// window into shared-scan batches — the group-commit pattern: the first
// query to arrive becomes the group's leader, waits out the window while
// later arrivals join, then executes the whole group as one QueryBatch and
// wakes the followers. A group of one takes the exact solo QueryContext
// path, so an idle database with a window configured answers byte-identically
// to one without; the window only ever delays a query by at most its length.
type Batcher struct {
	idx    BatchQuerier
	window time.Duration

	mu  sync.Mutex
	cur *batchGroup
}

// batchGroup is one admission window's worth of queries. members is
// append-only under the Batcher's mutex until the leader closes admission;
// results is written by the leader before done is closed, which publishes
// it to the followers.
type batchGroup struct {
	members []BatchQuery
	results []BatchResult
	done    chan struct{}
}

// NewBatcher returns a Batcher executing groups on idx after the given
// admission window.
func NewBatcher(idx BatchQuerier, window time.Duration) *Batcher {
	return &Batcher{idx: idx, window: window}
}

// Window returns the configured admission window.
func (b *Batcher) Window() time.Duration { return b.window }

// QueryContext submits one query. The calling goroutine either leads a new
// group (sleeping out the admission window, then executing the batch) or
// joins the currently open one and blocks until the leader serves it.
// ctx cancels only this member: a canceled follower still waits for the
// group (its slot returns the context error), and a canceled leader still
// executes the group so the followers are never stranded — the wait is
// bounded by the window plus the batch execution either way.
func (b *Batcher) QueryContext(ctx context.Context, q geom.Interval) (*Result, error) {
	b.mu.Lock()
	if g := b.cur; g != nil {
		idx := len(g.members)
		g.members = append(g.members, BatchQuery{Ctx: ctx, Query: q})
		b.mu.Unlock()
		<-g.done
		r := g.results[idx]
		return r.Res, r.Err
	}
	g := &batchGroup{done: make(chan struct{})}
	g.members = append(g.members, BatchQuery{Ctx: ctx, Query: q})
	b.cur = g
	b.mu.Unlock()

	time.Sleep(b.window)

	b.mu.Lock()
	b.cur = nil
	members := g.members
	b.mu.Unlock()
	g.results, _ = b.idx.QueryBatch(members)
	close(g.done)
	r := g.results[0]
	return r.Res, r.Err
}

var (
	_ BatchQuerier = (*LinearScan)(nil)
	_ BatchQuerier = (*IAll)(nil)
	_ BatchQuerier = (*Partitioned)(nil)
)
