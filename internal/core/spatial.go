package core

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
)

// SpatialIndex supports the conventional queries of §2.2.1 (type Q1): a
// 2-D R*-tree over cell extents finds the cells whose rectangle holds a query
// point, and the interpolation function of the one that contains it produces
// the field value. It is an access path into the cell file, not a store: its
// entries carry cell ids, and the records are the value index's, fetched from
// the Engine a query names at that engine's state — live, or a snapshot's pin.
// The tree is immutable (sample updates change values, never geometry) and
// alone on a read-only pager of its own, so a tree descent is accounted apart
// from the value store and the file SaveFile writes carries no tree page. It
// keeps only its pages: the index holds a paged handle, not the nodes it was
// built from.
type SpatialIndex struct {
	tree  *rstar.Tree
	pager *storage.Pager
	observed

	// filters recycles one pointFilter per concurrent PointQuery, so the
	// filter step allocates nothing in steady state.
	filters sync.Pool
}

// pointFilter is one point query's tree search: the searcher, the point's
// box, and the candidate cell ids its visitor collects.
type pointFilter struct {
	search rstar.Searcher
	box    [4]float64
	ids    []uint64
	add    func(rstar.Entry) bool // collect, bound once
}

func (pf *pointFilter) collect(e rstar.Entry) bool {
	pf.ids = append(pf.ids, e.Data)
	return true
}

// spatialMethod is the metrics/trace method label of the conventional-query
// index.
const spatialMethod = "Spatial"

// BuildSpatial indexes the bounding rectangles of f's cells in a 2-D R*-tree
// built with Hilbert packing and persisted on pager.
func BuildSpatial(f field.Field, pager *storage.Pager) (*SpatialIndex, error) {
	mapper, err := sfc.NewMapper(hilbert, f.Bounds())
	if err != nil {
		return nil, err
	}
	n := f.NumCells()
	entries := make([]rstar.Entry, n)
	keys := make([]uint64, n)
	var c field.Cell
	for id := 0; id < n; id++ {
		f.Cell(field.CellID(id), &c)
		b := c.Bounds()
		entries[id] = rstar.Entry{
			MBR:  rstar.Rect2D(b.Min.X, b.Max.X, b.Min.Y, b.Max.Y),
			Data: uint64(id),
		}
		keys[id] = mapper.Index(c.Center())
	}
	tree, err := rstar.BulkLoad(2, rstar.Params{PageSize: pager.PageSize()}, entries, func(a, b rstar.Entry) int {
		return cmp.Compare(keys[a.Data], keys[b.Data])
	}, 1.0)
	if err != nil {
		return nil, err
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	paged, err := rstar.OpenPaged(pager, tree.RootPage(), 2, rstar.Params{PageSize: pager.PageSize()},
		tree.Len(), tree.PersistedNodes(), tree.Height())
	if err != nil {
		return nil, err
	}
	return &SpatialIndex{tree: paged, pager: pager}, nil
}

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (s *SpatialIndex) SetObserver(ob obs.Observer) { s.setObs(ob, spatialMethod) }

// PointQueryContext answers F(v'): the field value at point pt, via the paged
// R*-tree and the candidate cells' records in cells — the value index over the
// same field, whose state (a snapshot's pin included) is the one the answer
// reads. ctx is polled between candidate fetches. The query is one trace — a
// filter span for the tree descent, a decode span for the cell fetch and
// interpolation, Lo/Hi carrying the point's X and Y — and its Stats are the
// two steps' sum, each published to its own pager's totals. They are valid
// even on error, so either pager's totals stay the sum of all reported
// per-operation stats.
func (s *SpatialIndex) PointQueryContext(ctx context.Context, cells Engine, pt geom.Point) (float64, storage.Stats, error) {
	tb, start := s.startQuery(spatialMethod, obs.KindPoint, pt.X, pt.Y)
	w, st, err := s.pointQuery(ctx, tb, cells, pt)
	s.endQuery(tb, start, err)
	return w, st, err
}

func (s *SpatialIndex) pointQuery(ctx context.Context, tb *obs.TraceBuilder, cells Engine, pt geom.Point) (float64, storage.Stats, error) {
	pf, _ := s.filters.Get().(*pointFilter)
	if pf == nil {
		pf = new(pointFilter)
		pf.add = pf.collect
	}
	defer func() {
		pf.ids = pf.ids[:0]
		s.filters.Put(pf)
	}()
	qc := s.pager.BeginQuery()
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseFilter)
	pf.box = [4]float64{pt.X, pt.X, pt.Y, pt.Y}
	if err := pf.search.Search(s.tree, qc, pf.box[:], pf.add); err != nil {
		return 0, qc.Stats(), err
	}
	qc.EndSpan()
	filterIO := qc.Stats()
	var w float64
	found := false
	fetchIO, err := cells.FetchCells(ctx, tb, pf.ids, func(c *field.Cell) bool {
		w, found = field.Interpolate(c, pt)
		return !found
	})
	st := filterIO.Add(fetchIO)
	if err != nil {
		return 0, st, err
	}
	s.recordIO(filterIO, 0, st)
	if !found {
		return 0, st, fmt.Errorf("%w: point %v", ErrOutsideField, pt)
	}
	return w, st, nil
}

// Stats describes the built index. The cell pages are the value index's.
func (s *SpatialIndex) Stats() IndexStats {
	return IndexStats{
		Method:     spatialMethod,
		Cells:      s.tree.Len(),
		IndexPages: s.tree.PersistedNodes(),
		TreeHeight: s.tree.Height(),
	}
}
