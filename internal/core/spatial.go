package core

import (
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
// 2-D R*-tree over cell extents locates the cell containing a query point,
// and the interpolation function of that cell produces the field value. Like
// the value indexes it is a handle: live, or — as a snapshot — pinned at a
// storage epoch, so a snapshot's conventional queries stay byte-identical, I/O
// statistics included, however many update batches commit on the spatial
// store afterwards.
type SpatialIndex struct {
	*spatialStore
	pinned
}

// spatialStore is what a spatial index owns: one hook-less partition holding
// the cell records in natural order, in the shell that versions them. The
// R*-tree is immutable under live updates (sample updates change values, never
// geometry), so the published state carries nothing but the epoch.
type spatialStore struct {
	shell
	*partition
	tree *rstar.Tree

	// scratch recycles one pointScratch per concurrent PointQuery, so the
	// point-query hot path (a few candidate probes per call) allocates no
	// per-call buffers in steady state.
	scratch sync.Pool
}

// spatialMethod is the metrics/trace method label of the conventional-query
// index.
const spatialMethod = "Spatial"

// pointScratch is the reusable per-call state of PointQuery.
type pointScratch struct {
	buf        []byte
	candidates []uint64
}

// BuildSpatial stores the cells and indexes their bounding rectangles in a
// 2-D R*-tree built with Hilbert packing. ctx cancels construction between
// cell-write batches.
func BuildSpatial(ctx context.Context, f field.Field, pager *storage.Pager) (*SpatialIndex, error) {
	curve, err := sfc.NewHilbert(16, 2)
	if err != nil {
		return nil, err
	}
	mapper, err := sfc.NewMapper(curve, f.Bounds())
	if err != nil {
		return nil, err
	}
	heap, rids, _, _, err := writeCells(ctx, f, pager, identityOrder(f), "")
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
	tree, err := rstar.BulkLoad(2, rstar.Params{PageSize: pager.PageSize()}, entries, func(a, b rstar.Entry) bool {
		return keys[a.Data] < keys[b.Data]
	}, 1.0)
	if err != nil {
		return nil, err
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	st := &spatialStore{partition: &partition{heap: heap, rids: rids, cells: n}, tree: tree}
	st.label, st.pager, st.parts = spatialMethod, pager, []*partition{st.partition}
	st.snap.Store(&state{epoch: pager.CurrentEpoch()})
	return &SpatialIndex{spatialStore: st, pinned: pinned{live: &st.shell}}, nil
}

// PointQuery answers F(v'): the field value at point pt, via the paged
// R*-tree and one cell fetch.
func (s *SpatialIndex) PointQuery(pt geom.Point) (float64, storage.Stats, error) {
	return s.PointQueryContext(context.Background(), pt)
}

// PointQueryContext is PointQuery with cancellation (polled between candidate
// cell fetches) and tracing: a filter span for the R*-tree descent, a decode
// span for the candidate fetch + interpolation. The trace's Lo/Hi carry the
// query point's X and Y. The returned Stats are valid even on error — the
// partial activity is still published, so pager totals stay the sum of all
// reported per-query stats.
func (s *SpatialIndex) PointQueryContext(ctx context.Context, pt geom.Point) (float64, storage.Stats, error) {
	tb, start := s.startQuery(spatialMethod, obs.KindPoint, pt.X, pt.Y)
	at := s.pinState()
	w, st, err := s.pointQuery(ctx, tb, beginQueryAt(s.pager, at.epoch), pt)
	s.unpin(at)
	s.endQuery(tb, start, err)
	return w, st, err
}

func (s *SpatialIndex) pointQuery(ctx context.Context, tb *obs.TraceBuilder, qc *storage.QueryCtx, pt geom.Point) (float64, storage.Stats, error) {
	qc.AttachTrace(tb)
	query := rstar.Rect2D(pt.X, pt.X, pt.Y, pt.Y)
	ps, _ := s.scratch.Get().(*pointScratch)
	if ps == nil {
		ps = &pointScratch{}
	}
	defer func() {
		ps.candidates = ps.candidates[:0]
		s.scratch.Put(ps)
	}()
	qc.BeginSpan(obs.PhaseFilter)
	err := s.tree.PagedSearchCtx(qc, query, func(e rstar.Entry) bool {
		ps.candidates = append(ps.candidates, e.Data)
		return true
	})
	if err != nil {
		return 0, qc.Stats(), err
	}
	qc.EndSpan()
	filterIO := qc.LocalStats()
	var c field.Cell
	qc.BeginSpan(obs.PhaseDecode)
	for _, id := range ps.candidates {
		if err := ctx.Err(); err != nil {
			return 0, qc.Stats(), err
		}
		rec, err := s.heap.GetCtx(qc, s.rids[id], ps.buf)
		if err != nil {
			return 0, qc.Stats(), err
		}
		ps.buf = rec[:0]
		if err := field.DecodeCell(rec, &c); err != nil {
			return 0, qc.Stats(), err
		}
		if w, ok := field.Interpolate(&c, pt); ok {
			qc.EndSpan()
			st := qc.Stats()
			s.recordIO(filterIO, 0, st)
			return w, st, nil
		}
	}
	qc.EndSpan()
	st := qc.Stats()
	s.recordIO(filterIO, 0, st)
	return 0, st, fmt.Errorf("core: point %v outside the field", pt)
}

// IOStats returns the cumulative page-access statistics of the spatial
// index's store.
func (s *SpatialIndex) IOStats() storage.Stats { return s.pager.Stats() }

// PoolShardStats returns the per-shard buffer-pool counters of the spatial
// index's store (nil when the pool is disabled).
func (s *SpatialIndex) PoolShardStats() []storage.PoolShardStats {
	return s.pager.PoolShardStats()
}

// Stats describes the built index.
func (s *SpatialIndex) Stats() IndexStats {
	return IndexStats{
		Method:     "Spatial",
		Cells:      s.cells,
		CellPages:  s.heap.NumPages(),
		IndexPages: s.tree.PersistedNodes(),
		TreeHeight: s.tree.Height(),
	}
}

// AcquireSnapshot pins the spatial store's current epoch and returns a
// point-in-time handle over it; its Close releases the pin (idempotently).
func (s *SpatialIndex) AcquireSnapshot() *SpatialIndex {
	return &SpatialIndex{spatialStore: s.spatialStore, pinned: s.snapshot()}
}

// ApplyUpdates re-encodes the affected cells of the spatial store. The
// samples are already applied by the value index's ApplyUpdates — the facade
// calls that first — so this is the update transaction with nothing to apply
// and no hook to run: cell geometry never changes, the 2-D R*-tree needs no
// maintenance, and the batch commits as one epoch on the spatial store's own
// pager.
func (s *SpatialIndex) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	return s.applyUpdates(ctx, f, updates, s.partition, false)
}
