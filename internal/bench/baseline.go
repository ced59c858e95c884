package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/intervaltree"
	"fielddb/internal/ipindex"
	"fielddb/internal/storage"
)

// baseline is a related-work design of §2.3 as a core.Index: an in-memory
// filter turns a value interval into cell ids, which are fetched in that order
// from a natural-order heap (a LinearScan engine without its sidecar) and
// refined with field.Band. The filter costs no I/O — the paper dismisses such
// structures for large databases because they must reside in memory.
type baseline struct {
	method core.Method
	groups int
	filter func(q geom.Interval) []uint64
	eng    core.Engine
}

func newBaseline(f field.Field, p *storage.Pager, method core.Method, groups int, filter func(geom.Interval) []uint64) (core.Index, error) {
	eng, err := core.Build(context.Background(), f, p, core.BuildOptions{Method: core.MethodLinearScan, NoSidecar: true})
	if err != nil {
		return nil, err
	}
	return &baseline{method: method, groups: groups, filter: filter, eng: eng}, nil
}

// buildIntervalTree builds I-IntTree over f: a centered interval tree over
// every cell interval (Cignoni et al.'s isosurface extraction, van Kreveld's
// isolines), its candidates fetched in id order, which the natural-order heap
// turns into mostly forward page access.
func buildIntervalTree(f field.Field, p *storage.Pager) (core.Index, error) {
	items := make([]intervaltree.Item, f.NumCells())
	var c field.Cell
	for id := range items {
		f.Cell(field.CellID(id), &c)
		items[id] = intervaltree.Item{Interval: c.Interval(), Data: uint64(id)}
	}
	tree := intervaltree.Build(items)
	return newBaseline(f, p, "I-IntTree", len(items), func(q geom.Interval) []uint64 {
		var ids []uint64
		tree.Query(q, func(it intervaltree.Item) bool {
			ids = append(ids, it.Data)
			return true
		})
		slices.Sort(ids)
		return ids
	})
}

// buildIPRow builds IP-Row over a DEM, the only field the original design
// indexes (row = time sequence): one IP-index (Lin & Risch) per row exploits
// value continuity along X only, so candidates within a row form short runs,
// but the runs scatter across rows.
func buildIPRow(f field.Field, p *storage.Pager) (core.Index, error) {
	d, ok := f.(*grid.DEM)
	if !ok {
		return nil, fmt.Errorf("bench: IP-Row requires a DEM, got %T", f)
	}
	ip := ipindex.Build(d)
	return newBaseline(f, p, "IP-Row", ip.NumRows(), func(q geom.Interval) []uint64 {
		var ids []uint64
		ip.Query(q, func(id field.CellID) bool {
			ids = append(ids, uint64(id))
			return true
		})
		return ids
	})
}

// Method implements core.Index.
func (b *baseline) Method() core.Method { return b.method }

// Stats implements core.Index: the heap's pages, no index pages (the filter
// is main memory), and the filter's groups.
func (b *baseline) Stats() core.IndexStats {
	st := b.eng.Stats()
	st.Method, st.Groups = b.method, b.groups
	return st
}

// Query implements core.Index.
func (b *baseline) Query(q geom.Interval) (*core.Result, error) {
	if q.IsEmpty() {
		return nil, errors.New("bench: empty query interval")
	}
	ids := b.filter(q)
	res := &core.Result{Query: q, CandidateGroups: len(ids)}
	io, err := b.eng.FetchCells(context.Background(), nil, ids, func(c *field.Cell) bool {
		res.CellsFetched++
		if !c.Interval().Intersects(q) {
			return true
		}
		res.CellsMatched++
		if q.Length() > 0 {
			for _, pg := range field.Band(c, q.Lo, q.Hi) {
				res.Area += pg.Area()
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res.IO = io
	return res, nil
}
