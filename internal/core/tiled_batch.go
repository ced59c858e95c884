package core

import (
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// Shared-scan batching over tiles: K concurrent value queries prune tiles
// independently (pure in-memory, per member) but scatter as ONE pass per
// residual tile — a single sidecar scan evaluates every covering member's
// predicate and the union of their surviving heap pages is fetched once. Each
// member refines its survivors into its stream, a partial per tile, and
// gathers them in tile order afterwards, so the per-member answers — fold
// order, Area accumulation, Result.IO — stay byte-identical to solo
// QueryContext calls, exactly the QueryBatch contract.
//
// The shared pipeline requires LinearScan tiles with sidecars (the only
// configuration whose filter pass is shareable: one comparison loop serves
// all K predicates). Partitioned inner methods run their members solo inside
// the batch — per-member tree searches have no shared scan to coalesce.

// batchTiles runs the tiled shared-scan pipeline over the live members.
func (e *engine) batchTiles(s *state, ms []batchMember, phys *storage.QueryCtx, bb *batchBuf) {
	if pollMembers(ms) == 0 {
		return
	}
	k := len(ms)
	// Per-member prune, replayed exactly like solo: one zero-read span per
	// member, the summary tests in tile order, metrics per query. Each member
	// gets one partial per tile it covers, in bb.parts.
	inTile := make([][]bool, len(e.parts))
	for ti := range inTile {
		inTile[ti] = make([]bool, k)
	}
	for i := range ms {
		m := &ms[i]
		if !m.live() {
			continue
		}
		m.qc.BeginSpan(obs.PhaseTilePrune)
		residual := 0
		for ti, vr := range s.vr {
			if vr.Intersects(m.q) {
				inTile[ti][i] = true
				residual++
			}
		}
		m.qc.EndSpan()
		e.ob.Metrics.RecordTiles(len(e.parts)-residual, residual)
		m.res.CandidateGroups = residual
		// Untiled LinearScan semantics, as in the solo path: every cell's
		// interval is accounted as tested.
		m.res.CellsFetched = e.cells
	}
	for ti, tl := range e.parts {
		if pollMembers(ms) == 0 {
			return
		}
		any := false
		for i := range ms {
			any = any || (ms[i].live() && inTile[ti][i])
		}
		if !any {
			continue
		}
		// One physical pass over this tile's sidecar evaluates every covering
		// member's predicate.
		if !tl.filterShared(ms, inTile[ti], phys, bb) {
			return
		}
		// Attributed replay: each covering member charges its exact solo
		// per-tile sequence — the whole tile sidecar as one run, then its own
		// surviving heap pages — under the same PhaseTileScan span a solo
		// scatter opens for this tile.
		union := bb.prs[:0]
		for i := range ms {
			m := &ms[i]
			m.pos, m.cur = nil, 0
			if !m.live() || !inTile[ti][i] {
				continue
			}
			m.pos = bb.pos[i]
			m.s.reserve(len(m.pos))
			bb.parts[i] = append(bb.parts[i], partial{s: m.s, from: m.s.mark()})
			m.qc.BeginSpan(obs.PhaseTileScan)
			m.sidecarReads += tl.chargeSidecar(m.qc)
			chargePositions(m.qc, tl.heap, m.pos)
			m.qc.EndSpan()
			union = appendPosRuns(union, tl.heap, m.pos)
		}
		bb.prs = union
		demuxPositions(phys, tl.heap, ms, mergeRuns(union), true)
		// Close the window each covering member opened on this tile (a member
		// dead since an earlier tile took nothing in since it closed that one).
		for i := range ms {
			if ps := bb.parts[i]; inTile[ti][i] && len(ps) > 0 {
				ps[len(ps)-1].to = ms[i].s.mark()
			}
		}
	}
	// Gather: each member folds its own partials in tile order — the solo
	// gather, one member at a time, under the refinement span solo opens for
	// it (finishMembers closes it). A member that pruned every tile has none,
	// as solo returns before the gather.
	for i := range ms {
		m := &ms[i]
		if !m.live() || m.res.CandidateGroups == 0 {
			continue
		}
		m.qc.BeginSpan(obs.PhaseRefine)
		gather(m.res, bb.parts[i])
	}
}
