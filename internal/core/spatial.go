package core

import (
	"context"
	"fmt"
	"runtime"
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
// and the interpolation function of that cell produces the field value.
type SpatialIndex struct {
	pager *storage.Pager
	heap  *storage.HeapFile
	tree  *rstar.Tree
	rids  []storage.RID
	cells int

	// scratch recycles one pointScratch per concurrent PointQuery, so the
	// point-query hot path (a few candidate probes per call) allocates no
	// per-call buffers in steady state.
	scratch sync.Pool
	// updMu serializes updaters; point queries never take it — each pins its
	// epoch at BeginQuery and reads a consistent view.
	updMu sync.Mutex
	observed
}

// spatialMethod is the metrics/trace method label of the conventional-query
// index.
const spatialMethod = "Spatial"

// pointScratch is the reusable per-call state of PointQuery.
type pointScratch struct {
	buf        []byte
	candidates []uint64
}

// BuildSpatial stores the cells (in Hilbert order, for locality) and indexes
// their bounding rectangles in a 2-D R*-tree built with Hilbert packing.
func BuildSpatial(f field.Field, pager *storage.Pager, params rstar.Params) (*SpatialIndex, error) {
	return BuildSpatialCtx(context.Background(), f, pager, params)
}

// BuildSpatialCtx is BuildSpatial with construction cancellation, polled
// between cell-write batches.
func BuildSpatialCtx(ctx context.Context, f field.Field, pager *storage.Pager, params rstar.Params) (*SpatialIndex, error) {
	if params.PageSize == 0 {
		params.PageSize = pager.PageSize()
	}
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
	tree, err := rstar.BulkLoad(2, params, entries, func(a, b rstar.Entry) bool {
		return keys[a.Data] < keys[b.Data]
	}, 1.0)
	if err != nil {
		return nil, err
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	return &SpatialIndex{pager: pager, heap: heap, tree: tree, rids: rids, cells: n}, nil
}

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (s *SpatialIndex) SetObserver(ob obs.Observer) { s.setObs(ob, spatialMethod) }

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
	w, st, err := s.pointQuery(ctx, tb, s.pager.BeginQuery(), pt)
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

// Close releases the spatial index's underlying store.
func (s *SpatialIndex) Close() error { return s.pager.Close() }

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

// SpatialSnapshot is a pinned point-in-time view of a SpatialIndex: every
// point query through the handle reads the storage epoch that was current at
// acquisition, so a snapshot's conventional queries stay byte-identical —
// I/O statistics included — no matter how many update batches commit on the
// spatial store afterwards. Holding the snapshot keeps its epoch's page
// versions alive; Close releases the pin (idempotently).
type SpatialSnapshot struct {
	s     *SpatialIndex
	epoch uint64
	unpin func()
	once  sync.Once
}

// pinCurrentEpoch pins the pager's current epoch, retrying across the narrow
// window where a commit retires the epoch between the load and the pin. The
// returned release must be called exactly once.
func pinCurrentEpoch(pager *storage.Pager) (uint64, func()) {
	for {
		e := pager.CurrentEpoch()
		if pager.PinEpoch(e) {
			return e, func() { pager.UnpinEpoch(e) }
		}
		runtime.Gosched()
	}
}

// AcquireSnapshot pins the spatial store's current epoch and returns a
// point-in-time handle over it. The R*-tree structure itself is immutable
// under live updates (sample updates change values, never geometry), so
// pinning the heap pages is all a consistent spatial view needs.
func (s *SpatialIndex) AcquireSnapshot() *SpatialSnapshot {
	epoch, unpin := pinCurrentEpoch(s.pager)
	return &SpatialSnapshot{s: s, epoch: epoch, unpin: unpin}
}

// Epoch returns the storage epoch the snapshot reads.
func (ss *SpatialSnapshot) Epoch() uint64 { return ss.epoch }

// PointQueryContext answers F(v') at the snapshot's epoch, tracing and
// metering exactly like a live point query.
func (ss *SpatialSnapshot) PointQueryContext(ctx context.Context, pt geom.Point) (float64, storage.Stats, error) {
	qc, ok := ss.s.pager.BeginQueryAt(ss.epoch)
	if !ok {
		return 0, storage.Stats{}, fmt.Errorf("core: spatial snapshot epoch %d no longer available", ss.epoch)
	}
	tb, start := ss.s.startQuery(spatialMethod, obs.KindPoint, pt.X, pt.Y)
	w, st, err := ss.s.pointQuery(ctx, tb, qc, pt)
	ss.s.endQuery(tb, start, err)
	return w, st, err
}

// Close releases the snapshot's epoch pin. Safe to call more than once.
func (ss *SpatialSnapshot) Close() error {
	ss.once.Do(ss.unpin)
	return nil
}
