package core

import (
	"math"

	"fielddb/internal/field"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// Shared-scan batching for the tiled planner: K concurrent value queries
// prune tiles independently (pure in-memory, per member) but scatter as ONE
// pass per residual tile — a single sidecar scan evaluates every covering
// member's predicate and the union of their surviving heap pages is fetched
// once. Each member's survivors land in that member's own arena and gather in
// global parent-id order afterwards, so the per-member answers — fold order,
// Area accumulation, Result.IO — stay byte-identical to solo QueryContext
// calls, exactly the BatchQuerier contract.
//
// The shared pipeline requires LinearScan tiles with sidecars (the only
// configuration whose filter pass is shareable: one comparison loop serves
// all K predicates). Partitioned inner methods run their members solo inside
// the batch — per-member tree searches have no shared scan to coalesce.

// QueryBatch implements BatchQuerier.
func (t *TiledIndex) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	if len(members) == 0 {
		return nil, BatchStats{}
	}
	if len(members) == 1 || t.inner != MethodLinearScan {
		return sequentialBatch(&t.observed, t, members)
	}
	for _, tl := range t.tiles {
		if ls, ok := tl.idx.(*LinearScan); !ok || ls.sidecar == nil {
			return sequentialBatch(&t.observed, t, members)
		}
	}
	s, release := t.pinState()
	defer release()
	bo := t.startBatch(t.label, members)
	ms := t.beginMembers(t.label, t.pager, s.epoch, members)
	phys := beginQueryAt(t.pager, s.epoch)
	defer phys.Release()
	bb := getBatchBuf(len(members))
	defer putBatchBuf(bb)
	t.batchTiles(s, ms, phys, bb)
	results, attributed := t.finishMembers(ms)
	return results, t.endBatch(bo, len(members), phys.LocalStats(), storage.Stats{}, attributed)
}

// batchTiles runs the tiled shared-scan pipeline over the live members.
func (t *TiledIndex) batchTiles(s *tiledState, ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) {
	if pollMembers(ms) == 0 {
		return
	}
	k := len(ms)
	// Per-member prune, replayed exactly like solo: one zero-read span per
	// member, the summary tests in tile order, metrics per query.
	inTile := make([][]bool, k)
	arenas := make([]tileArena, k)
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		m.qc.BeginSpan(obs.PhaseTilePrune)
		cov := make([]bool, len(t.tiles))
		residual := 0
		for ti := range t.tiles {
			if s.vr[ti].Intersects(m.q) {
				cov[ti] = true
				residual++
			}
		}
		m.qc.EndSpan()
		inTile[i] = cov
		t.ob.Metrics.RecordTiles(len(t.tiles)-residual, residual)
		m.res.CandidateGroups = residual
		// Untiled LinearScan semantics, as in the solo path: every cell's
		// interval is accounted as tested.
		m.res.CellsFetched = t.cells
	}
	cur := make([]int, k)
	for ti, tl := range t.tiles {
		if pollMembers(ms) == 0 {
			return
		}
		ls := tl.idx.(*LinearScan)
		any := false
		for i := range ms {
			m := &ms[i]
			if m.live() && inTile[i][ti] {
				bb.qlo[i], bb.qhi[i] = m.q.Lo, m.q.Hi
				any = true
			} else {
				bb.qlo[i], bb.qhi[i] = math.NaN(), math.NaN()
			}
			bb.pos[i] = bb.pos[i][:0]
			cur[i] = 0
		}
		if !any {
			continue
		}
		// One physical pass over this tile's sidecar evaluates every covering
		// member's predicate; NaN bounds keep the others from accumulating
		// positions. A member canceled mid-scan goes NaN too, and the scan
		// stops early once no covering member remains.
		err := ls.sidecar.ScanRange(phys, 0, ls.cells, func(base int, lo, hi []float64) bool {
			field.FilterIntervalsMulti(bb.pos, int32(base), lo, hi, bb.qlo, bb.qhi)
			liveHere := 0
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
				liveHere++
			}
			return liveHere > 0
		})
		if err != nil {
			failLive(ms, err)
			return
		}
		// Attributed replay: each covering member charges its exact solo
		// per-tile sequence — the whole tile sidecar as one run, then its own
		// surviving heap pages — under the same PhaseTileScan span a solo
		// scatter opens for this tile.
		scFirst := ls.sidecar.FirstPage()
		scLast := scFirst + storage.PageID(ls.sidecar.NumPages()-1)
		union := bb.prs[:0]
		for i := range ms {
			m := &ms[i]
			if !m.live() || !inTile[i][ti] {
				continue
			}
			m.qc.BeginSpan(obs.PhaseTileScan)
			before := m.qc.LocalStats().Reads
			m.qc.ChargeRun(scFirst, scLast)
			m.sidecarReads += m.qc.LocalStats().Reads - before
			chargePositions(m.qc, ls.rids, bb.pos[i])
			m.qc.EndSpan()
			union = appendPosRuns(union, ls.rids, bb.pos[i])
		}
		bb.prs = union
		demuxTileArena(phys, ls.rids, ms, mergePhysRuns(union), tl.ids, arenas, bb.pos, cur)
	}
	// Gather: each member folds its own survivors in global parent-id order —
	// the solo gather, one member at a time.
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		if err := gatherArenas(m.res, arenas[i:i+1], m.q, nil); err != nil {
			m.err = err
		}
	}
}

// demuxTileArena fetches one tile's union runs once through phys and copies
// each surviving record into every holding member's arena under its parent
// cell id. Positions are prefiltered (the sidecar test IS the interval test),
// so every served record is a survivor; the fold itself happens at gather.
func demuxTileArena(phys *storage.QueryCtx, rids []storage.RID, ms []batchMember, union []physRun, ids []field.CellID, arenas []tileArena, pos [][]int32, cur []int) {
	processed := 0
	for _, ur := range union {
		if pollMembers(ms) == 0 {
			return
		}
		err := phys.ReadRun(ur.first, ur.last, func(id storage.PageID, page []byte) bool {
			for {
				// Lowest unconsumed position on this page across members —
				// cursors never lag the served page because union pages ascend
				// and every member page is a union page.
				best := int32(-1)
				for i := range ms {
					m := &ms[i]
					if !m.live() || cur[i] >= len(pos[i]) || rids[pos[i][cur[i]]].Page != id {
						continue
					}
					if best < 0 || pos[i][cur[i]] < best {
						best = pos[i][cur[i]]
					}
				}
				if best < 0 {
					return true
				}
				rec, recErr := storage.RecordInPage(page, rids[best].Slot)
				for i := range ms {
					m := &ms[i]
					if !m.live() || cur[i] >= len(pos[i]) || pos[i][cur[i]] != best {
						continue
					}
					cur[i]++
					if recErr != nil {
						m.err = recErr
						continue
					}
					arenas[i].add(ids[best], rec)
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

var _ BatchQuerier = (*TiledIndex)(nil)
