package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
)

// The conventional queries of §2.2.1 (type Q1) find the cells whose closed
// rectangle holds a query point, and the interpolation function of the first
// of them, in id order, that contains it produces the field value. Two
// locators find them: a regular grid's cells are arithmetic on its lattice
// (GridLocator), any other field's are found by a 2-D R*-tree over the cell
// extents (SpatialIndex). Either is an access path into the cell file, not a
// store: it yields cell ids, and the records are the value index's, fetched
// from the Engine a query names at that engine's state — live, or a
// snapshot's pin. Sample updates change values, never geometry, so neither
// locator changes after it is made.

// SpatialIndex is the locator of an irregular field: a 2-D R*-tree over the
// cell extents, whose entries carry cell ids. The tree is alone on a read-only
// pager of its own, so a tree descent is accounted apart from the value store
// and the file SaveFile writes carries no tree page. It keeps only its pages:
// the index holds a paged handle, not the nodes it was built from.
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
// per-operation stats. GridLocator.PointQueryContext keeps the same contract.
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
	defer qc.Recycle()
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseFilter)
	pf.box = [4]float64{pt.X, pt.X, pt.Y, pt.Y}
	if err := pf.search.Search(s.tree, qc, pf.box[:], pf.add); err != nil {
		return 0, qc.Stats(), err
	}
	qc.EndSpan()
	return s.interpolate(ctx, tb, cells, pf.ids, pt, qc.Stats())
}

// interpolate is a point query's decode step, whichever locator filtered:
// it fetches the candidate cells ids through cells, in order, and answers the
// first whose interpolant reaches pt. filterIO is what the filter step read;
// the Stats returned add the fetch to it.
func (o *observed) interpolate(ctx context.Context, tb *obs.TraceBuilder, cells Engine, ids []uint64, pt geom.Point, filterIO storage.Stats) (float64, storage.Stats, error) {
	var w float64
	found := false
	fetchIO, err := cells.FetchCells(ctx, tb, ids, func(c *field.Cell) bool {
		w, found = field.Interpolate(c, pt)
		return !found
	})
	st := filterIO.Add(fetchIO)
	if err != nil {
		return 0, st, err
	}
	o.recordIO(filterIO, 0, st)
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

// Gridded is what a regular-grid field satisfies (grid.DEM): nx × ny cells of
// dx × dy from origin, numbered row-major, cell (col, row) spanning
// [origin.X + col·dx, that + dx] × [origin.Y + row·dy, that + dy].
type Gridded interface {
	Grid() (origin geom.Point, dx, dy float64, nx, ny int)
}

// lattice is a Gridded field's geometry, as a store keeps it and its catalog
// saves it: the exact float64 bits, so the cell rectangles it derives are the
// stored cells' own.
type lattice struct {
	origin geom.Point
	dx, dy float64
	nx, ny int
}

// latticeOf returns f's lattice, or nil where f is no regular grid.
func latticeOf(f field.Field) *lattice {
	g, ok := f.(Gridded)
	if !ok {
		return nil
	}
	l := &lattice{}
	l.origin, l.dx, l.dy, l.nx, l.ny = g.Grid()
	return l
}

// span returns the cells lo..hi along one axis of n cells of side d from o
// whose closed extent [o + j·d, o + j·d + d] holds v — none (lo > hi) where no
// extent does. Both ends are monotone in j, so the cells that hold v are one
// run; the quotient lands on it or beside it, and the walks settle its ends
// with the sums the cells are made of.
func span(v, o, d float64, n int) (lo, hi int) {
	q := math.Floor((v - o) / d)
	if !(q >= -1 && q <= float64(n)) {
		return 0, -1 // far outside, or NaN
	}
	start := min(max(int(q), 0), n-1)
	reaches := func(j int) bool { return o+float64(j)*d+d >= v } // from lo on
	begins := func(j int) bool { return o+float64(j)*d <= v }    // up to hi
	for lo = start; lo > 0 && reaches(lo-1); lo-- {
	}
	for ; lo < n && !reaches(lo); lo++ {
	}
	for hi = start; hi < n-1 && begins(hi+1); hi++ {
	}
	for ; hi >= 0 && !begins(hi); hi-- {
	}
	return lo, hi
}

// cellsAt appends to dst, in id order, the ids of the cells whose closed
// rectangle holds pt: one inside a cell, two on an edge, four on a corner.
func (l *lattice) cellsAt(dst []uint64, pt geom.Point) []uint64 {
	c0, c1 := span(pt.X, l.origin.X, l.dx, l.nx)
	r0, r1 := span(pt.Y, l.origin.Y, l.dy, l.ny)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			dst = append(dst, uint64(r*l.nx+c))
		}
	}
	return dst
}

// GridLocator is the locator of a regular grid, which is its own spatial
// index: the cells that hold a point are arithmetic on the lattice, so a point
// query reads no index page — only the cell it interpolates.
type GridLocator struct {
	lattice
	observed

	// probes recycles one candidate buffer per concurrent point query.
	probes sync.Pool
}

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (g *GridLocator) SetObserver(ob obs.Observer) { g.setObs(ob, spatialMethod) }

// PointQueryContext answers F(v') as SpatialIndex.PointQueryContext does, with
// the same trace: its filter span, the lattice arithmetic, reads no page, and
// its decode span fetches the candidates — one cell, or the neighbours that
// share an edge or corner with pt — in id order. The Stats are the fetch's.
func (g *GridLocator) PointQueryContext(ctx context.Context, cells Engine, pt geom.Point) (float64, storage.Stats, error) {
	tb, start := g.startQuery(spatialMethod, obs.KindPoint, pt.X, pt.Y)
	probe, _ := g.probes.Get().(*[]uint64)
	if probe == nil {
		probe = new([]uint64)
	}
	tb.BeginSpan(obs.PhaseFilter, obs.PageCounts{})
	*probe = g.cellsAt((*probe)[:0], pt)
	tb.EndSpan(obs.PageCounts{})
	w, st, err := g.interpolate(ctx, tb, cells, *probe, pt, storage.Stats{})
	g.probes.Put(probe)
	g.endQuery(tb, start, err)
	return w, st, err
}
