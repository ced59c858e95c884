package core

import (
	"context"
	"fmt"
	"sort"

	"fielddb/internal/field"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// IAllOptions tunes the I-All build.
type IAllOptions struct {
	// BulkLoad packs the R*-tree bottom-up (sorted by interval center)
	// instead of inserting one interval at a time. Tuple-by-tuple insertion
	// reproduces the tall, overlapping tree the paper describes; bulk
	// loading is offered for build-time experiments.
	BulkLoad bool
	// Params override the R*-tree parameters (page size etc.).
	Params rstar.Params
	// NoSidecar skips building the columnar interval sidecar. I-All's
	// filter step never touches cell pages either way — the R*-tree stores
	// every cell's exact interval — so the sidecar is kept only for storage
	// parity with the other methods.
	NoSidecar bool
	// Codec selects the sidecar page codec; empty means raw.
	Codec string
}

// BuildIAll stores the field's cells in a heap file and indexes every cell
// interval in a 1-D R*-tree.
func BuildIAll(f field.Field, pager *storage.Pager, opts IAllOptions) (*IAll, error) {
	return BuildIAllCtx(context.Background(), f, pager, opts)
}

// BuildIAllCtx is BuildIAll with construction cancellation, polled between
// cell-write batches.
func BuildIAllCtx(ctx context.Context, f field.Field, pager *storage.Pager, opts IAllOptions) (*IAll, error) {
	if opts.Params.PageSize == 0 {
		opts.Params.PageSize = pager.PageSize()
	}
	heap, rids, sc, _, err := writeCells(ctx, f, pager, identityOrder(f), resolveSidecarCodec(opts.NoSidecar, opts.Codec))
	if err != nil {
		return nil, err
	}
	n := f.NumCells()
	var c field.Cell
	var tree *rstar.Tree
	if opts.BulkLoad {
		entries := make([]rstar.Entry, n)
		for id := 0; id < n; id++ {
			f.Cell(field.CellID(id), &c)
			iv := c.Interval()
			entries[id] = rstar.Entry{MBR: rstar.Interval1D(iv.Lo, iv.Hi), Data: uint64(id)}
		}
		tree, err = rstar.BulkLoad(1, opts.Params, entries, nil, 1.0)
		if err != nil {
			return nil, fmt.Errorf("core: I-All bulk load: %w", err)
		}
	} else {
		tree, err = rstar.New(1, opts.Params)
		if err != nil {
			return nil, fmt.Errorf("core: I-All tree: %w", err)
		}
		for id := 0; id < n; id++ {
			f.Cell(field.CellID(id), &c)
			iv := c.Interval()
			if err := tree.Insert(rstar.Entry{MBR: rstar.Interval1D(iv.Lo, iv.Hi), Data: uint64(id)}); err != nil {
				return nil, err
			}
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	ix := &valueIndex{method: MethodIAll, pager: pager, heap: heap, rids: rids, sidecar: sc, cells: n}
	return &IAll{newExecutor(ix, &state{epoch: pager.CurrentEpoch(), tree: tree})}, nil
}

// cellCandidates is I-All's filter: the persisted per-cell tree returns every
// cell whose interval intersects the query. The tree visits them in search
// order — effectively scrambled — which would make every fetch its own random
// page access; cell ids are heap positions (I-All stores cells in natural
// order), so sorting turns the refinement into ascending page runs. The
// answer geometry folds in heap order; cross-method comparisons are
// unaffected because region sets are order-insensitive up to float summation
// order.
func (ix *valueIndex) cellCandidates(st *state, pr *probe) error {
	pr.begin(obs.PhaseFilter)
	err := st.tree.PagedSearchCtx(pr.qc, rstar.Interval1D(pr.q.Lo, pr.q.Hi), func(e rstar.Entry) bool {
		pr.pos = append(pr.pos, int32(e.Data))
		return true
	})
	if err != nil {
		return err
	}
	pr.filter = pr.end()
	pr.groups = len(pr.pos)
	pos := pr.pos
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	return nil
}

// maintainCells is I-All's maintenance: the changed cell intervals are
// deleted from and re-inserted into a hydrated copy of the per-cell tree,
// which is persisted to fresh pages, leaving the published tree untouched for
// readers at older epochs. When no interval changed the current tree stays.
func (ix *valueIndex) maintainCells(stage *overlayStage, _ field.Field, cur *state, ch *changes) (*state, int, bool, error) {
	if len(ch.cells) == 0 {
		return &state{tree: cur.tree}, 0, false, nil
	}
	qc := stage.qc
	qc.BeginSpan(obs.PhaseMaintain)
	work, err := cur.tree.Hydrate(qc)
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
	qc.EndSpan()
	if err := work.Persist(ix.pager); err != nil {
		return nil, 0, false, err
	}
	return &state{tree: work}, work.PersistedNodes(), false, nil
}
