package core

import (
	"fmt"
	"slices"

	"fielddb/internal/field"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
)

// cellCandidates is I-All's filter: the persisted per-cell tree returns every
// cell whose interval intersects the query. The tree visits them in search
// order — effectively scrambled — which would make every fetch its own random
// page access; cell ids are heap positions (I-All stores cells in natural
// order), so sorting turns the refinement into ascending page runs. The
// answer geometry folds in heap order; cross-method comparisons are
// unaffected because region sets are order-insensitive up to float summation
// order.
func (p *partition) cellCandidates(st *partState, pr *probe) error {
	pr.begin(obs.PhaseFilter)
	if err := pr.searchTree(st.tree, pr.addCell); err != nil {
		return err
	}
	pr.filter = pr.end()
	pr.groups = len(pr.pos)
	slices.Sort(pr.pos)
	// The entries come off tree pages: one past the heap is a corrupt tree,
	// refused before the fetch resolves it.
	if n := len(pr.pos); n > 0 && (pr.pos[0] < 0 || int(pr.pos[n-1]) >= p.cells) {
		return fmt.Errorf("core: I-All tree names a cell outside [0, %d)", p.cells)
	}
	return nil
}

// add is cellCandidates' tree visitor: it collects cell e.
func (pr *probe) add(e rstar.Entry) bool {
	pr.pos = append(pr.pos, int32(e.Data))
	return true
}

// maintainCells is I-All's maintenance: the changed cell intervals are
// deleted from and re-inserted into a hydrated copy of the per-cell tree,
// which is persisted to fresh pages, leaving the published tree untouched for
// readers at older epochs. When no interval changed the current tree stays.
func (p *partition) maintainCells(stage *overlayStage, _ field.Field, cur *partState, ch *changes) (*partState, int, bool, error) {
	if len(ch.cells) == 0 {
		return &partState{tree: cur.tree}, 0, false, nil
	}
	work, err := cur.tree.Hydrate(stage.qc)
	if err != nil {
		return nil, 0, false, err
	}
	for i, id := range ch.cells {
		if !work.Delete(rstar.Entry{MBR: rstar.Interval1D(ch.old[i].Lo, ch.old[i].Hi), Data: uint64(id)}) {
			return nil, 0, false, fmt.Errorf("core: cell %d interval %v not in index", id, ch.old[i])
		}
		if err := work.Insert(rstar.Entry{MBR: rstar.Interval1D(ch.new[i].Lo, ch.new[i].Hi), Data: uint64(id)}); err != nil {
			return nil, 0, false, err
		}
	}
	if err := work.Persist(stage.pager); err != nil {
		return nil, 0, false, err
	}
	return &partState{tree: work}, work.PersistedNodes(), false, nil
}
