package core

import (
	"context"
	"fmt"
	"slices"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/intervaltree"
	"fielddb/internal/storage"
)

// MethodIntervalTree is the related-work baseline of §2.3: a main-memory
// interval tree over every cell interval (Cignoni et al.'s isosurface
// extraction / van Kreveld's isolines). The filter step costs no I/O at all
// — the structure the paper dismisses for large databases precisely because
// it must reside in memory — but candidates are still fetched from disk
// cell by cell, like I-All.
const MethodIntervalTree Method = "I-IntTree"

// ITree answers value queries with an in-memory centered interval tree for
// the filter step.
type ITree struct {
	pager *storage.Pager
	heap  *storage.HeapFile
	tree  *intervaltree.Tree
	rids  []storage.RID
	cells int
}

// BuildITree stores the cells and builds the in-memory interval tree.
func BuildITree(f field.Field, pager *storage.Pager) (*ITree, error) {
	heap, rids, _, _, err := writeCells(context.Background(), f, pager, identityOrder(f), "")
	if err != nil {
		return nil, err
	}
	items := make([]intervaltree.Item, f.NumCells())
	var c field.Cell
	for id := 0; id < f.NumCells(); id++ {
		f.Cell(field.CellID(id), &c)
		items[id] = intervaltree.Item{Interval: c.Interval(), Data: uint64(id)}
	}
	return &ITree{
		pager: pager,
		heap:  heap,
		tree:  intervaltree.Build(items),
		rids:  rids,
		cells: f.NumCells(),
	}, nil
}

// Method implements Index.
func (ix *ITree) Method() Method { return MethodIntervalTree }

// Stats implements Index (IndexPages 0: the tree is main memory).
func (ix *ITree) Stats() IndexStats {
	return IndexStats{
		Method:    MethodIntervalTree,
		Cells:     ix.cells,
		CellPages: ix.heap.NumPages(),
		Groups:    ix.cells,
	}
}

// Query implements Index.
func (ix *ITree) Query(q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	qc := ix.pager.BeginQuery()
	defer qc.Release() // a failed search or fetch must not leave the epoch pinned
	res := &Result{Query: q}
	var candidates []uint64
	ix.tree.Query(q, func(it intervaltree.Item) bool {
		candidates = append(candidates, it.Data)
		return true
	})
	// Fetch in id order: cells are stored in natural order, so sorting
	// turns scattered fetches into mostly-forward page access.
	slices.Sort(candidates)
	res.CandidateGroups = len(candidates)
	rs := resultSink{res: res}
	var c field.Cell
	var buf []byte
	for _, id := range candidates {
		rec, err := ix.heap.GetCtx(qc, ix.rids[id], buf)
		if err != nil {
			return nil, fmt.Errorf("core: fetching cell %d: %w", id, err)
		}
		buf = rec[:0]
		if err := estimateRecord(&rs, rec, &c); err != nil {
			return nil, err
		}
	}
	res.IO = qc.Stats()
	return res, nil
}

var _ Index = (*ITree)(nil)
