package core

import (
	"context"
	"fmt"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/ipindex"
	"fielddb/internal/storage"
)

// MethodIPRow is the related-work baseline of §2.3: one IP-index (Lin &
// Risch) per DEM row, exploiting value continuity along the X axis only.
const MethodIPRow Method = "IP-Row"

// IPRow answers value queries with a per-row in-memory IP-index for the
// filter step; candidate cells are fetched from the heap file (stored in
// row-major order, so candidates within one row form short contiguous
// runs, but runs are scattered across rows — the paper's critique that
// one-dimensional continuity cannot cluster candidates the way 2-D
// Hilbert subfields do).
type IPRow struct {
	pager *storage.Pager
	heap  *storage.HeapFile
	ip    *ipindex.Index
	rids  []storage.RID
	cells int
}

// BuildIPRow stores the DEM's cells row-major and builds the per-row index.
// Only regular grids are supported, exactly as in the original application
// (row = time sequence).
func BuildIPRow(d *grid.DEM, pager *storage.Pager) (*IPRow, error) {
	heap, rids, _, _, err := writeCells(context.Background(), d, pager, identityOrder(d), "")
	if err != nil {
		return nil, err
	}
	return &IPRow{
		pager: pager,
		heap:  heap,
		ip:    ipindex.Build(d),
		rids:  rids,
		cells: d.NumCells(),
	}, nil
}

// Method implements Index.
func (ix *IPRow) Method() Method { return MethodIPRow }

// Stats implements Index. The IP-index itself is main memory (IndexPages
// 0), matching the original design.
func (ix *IPRow) Stats() IndexStats {
	return IndexStats{
		Method:    MethodIPRow,
		Cells:     ix.cells,
		CellPages: ix.heap.NumPages(),
		Groups:    ix.ip.NumRows(),
	}
}

// Query implements Index: in-memory row filtering, then per-candidate cell
// fetches through the pager (page reuse within the query via the pool).
func (ix *IPRow) Query(q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	qc := ix.pager.BeginQuery()
	defer qc.Release() // a failed search or fetch must not leave the epoch pinned
	res := &Result{Query: q}
	var candidates []field.CellID
	ix.ip.Query(q, func(id field.CellID) bool {
		candidates = append(candidates, id)
		return true
	})
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

var _ Index = (*IPRow)(nil)
