package core

import (
	"context"
	"fmt"
	"sort"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// This file implements the scale-out read path for large terrains: the field
// is split into fixed-size tiles, each tile a self-contained partition with
// its own heap segment and per-tile index (a LinearScan tile's: its sidecar)
// on one shared pager, and value queries execute tile by tile, scatter-gather:
//
//   - Prune: each tile carries a (min, max) value summary covering every cell
//     interval inside it. Tiles whose summary misses the query are pruned
//     without touching a single page — the prune step is pure in-memory
//     comparison, traced as a PhaseTilePrune span with zero page reads.
//   - Scatter: the residual tiles are scanned through the tile's own index
//     (sidecar filter for LinearScan tiles, subfield tree + run scan for the
//     partitioned families), optionally in parallel on the sharded worker
//     pool. Each tile scan refines its survivors as it meets them — the decode,
//     the band polygons — into its worker's stream, in the tile's heap order.
//   - Gather: the tiles' windows fold in tile order into one exact array of
//     region headers and the area sums. The matching set is method-independent,
//     so every tiled configuration answers the untiled scan's regions, isolines
//     and counts as sets, and its areas up to summation order, while reading
//     only the residual tiles' pages; the fold is deterministic in tile order,
//     the same at any worker count, solo or batched.
//
// Updates route each affected cell to its owning tile and commit every
// tile's page overlays as ONE storage epoch, so concurrent readers never see
// a torn cross-tile state. Tile value summaries only ever widen under
// updates (vr ∪ new interval): a widened summary stays a superset of every
// member interval, which keeps pruning safe without re-scanning the tile;
// the summary re-tightens on the next rebuild.

// gridSized is implemented by grid-shaped fields (the DEM); the tiler uses
// it to cut exact row-major tile blocks. Other models fall back to spatial
// binning by cell center.
type gridSized interface {
	Size() (nx, ny int)
}

// tileField presents one tile of a parent field as a self-contained Field
// with local cell ids 0..len(ids)-1, so the per-tile indexes build and patch
// records exactly as they would over a standalone field. Local ids map to
// parent ids through the ascending ids slice.
type tileField struct {
	parent field.Field
	ids    []field.CellID
	bounds geom.Rect
	vr     geom.Interval
}

func (t *tileField) NumCells() int { return len(t.ids) }

func (t *tileField) Cell(id field.CellID, dst *field.Cell) *field.Cell {
	c := t.parent.Cell(t.ids[id], dst)
	c.ID = id
	return c
}

func (t *tileField) Bounds() geom.Rect         { return t.bounds }
func (t *tileField) ValueRange() geom.Interval { return t.vr }

func (t *tileField) Locate(p geom.Point) (field.CellID, bool) {
	pid, ok := t.parent.Locate(p)
	if !ok {
		return 0, false
	}
	i := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= pid })
	if i < len(t.ids) && t.ids[i] == pid {
		return field.CellID(i), true
	}
	return 0, false
}

// TileInfo describes one tile of a tiled store.
type TileInfo struct {
	Cells      int
	MBR        geom.Rect
	ValueRange geom.Interval
}

// Tiles implements Engine: every tile with its current value summary, nil for
// an untiled store.
func (e *engine) Tiles() []TileInfo {
	if e.tileSide == 0 {
		return nil
	}
	st := e.cur()
	out := make([]TileInfo, len(e.parts))
	for i, p := range e.parts {
		out[i] = TileInfo{Cells: p.cells, MBR: p.mbr, ValueRange: st.vr[i]}
	}
	return out
}

// buildTiles cuts f into TileSide-sized tiles and builds row m's partition
// over each on the store's pager, adding the tiles to s and their first states
// to st. It returns every cell's interval and area, tile by tile, for the one
// field summary — a tile fits none of its own, nothing would read it, and the
// cumulative distributions are order-independent, so feeding them in tile order
// fits the summary an untiled build would. ctx is polled between tiles and
// inside each partition build.
func buildTiles(ctx context.Context, f field.Field, s *store, st *state, m *methodSpec, opts *BuildOptions) ([]geom.Interval, []float64, error) {
	allIvs := make([]geom.Interval, 0, f.NumCells())
	allAreas := make([]float64, 0, f.NumCells())
	var c field.Cell
	for ti, ids := range tileLayout(f, opts.TileSide) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Per-tile MBR, exact value summary and total cell area, from the
		// very cells the tile build will store. The intervals and areas also
		// feed the global field summary fitted after the tiles.
		mbr := geom.EmptyRect()
		iv := geom.EmptyInterval()
		area := 0.0
		for _, id := range ids {
			f.Cell(id, &c)
			mbr = mbr.Union(c.Bounds())
			iv = iv.Union(c.Interval())
			a := c.Area()
			area += a
			allIvs = append(allIvs, c.Interval())
			allAreas = append(allAreas, a)
		}
		view := &tileField{parent: f, ids: ids, bounds: mbr, vr: iv}
		p, pst, _, err := buildPartition(ctx, view, s.pager, m, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: tile %d: %w", ti, err)
		}
		p.ids, p.area, p.view = ids, area, view
		s.add(p)
		st.vr = append(st.vr, iv)
		st.parts = append(st.parts, pst)
	}
	return allIvs, allAreas, nil
}

// tileLayout assigns every cell of f to a tile. Grid fields cut exact
// row-major TileSide×TileSide blocks; other models bin cells by center into
// a near-square grid of bins sized to hold TileSide² cells each. Every
// returned id slice is ascending and the slices partition 0..NumCells-1.
func tileLayout(f field.Field, side int) [][]field.CellID {
	if g, ok := f.(gridSized); ok {
		nx, ny := g.Size()
		tx := (nx + side - 1) / side
		ty := (ny + side - 1) / side
		out := make([][]field.CellID, 0, tx*ty)
		for tr := 0; tr < ty; tr++ {
			for tc := 0; tc < tx; tc++ {
				r1 := (tr + 1) * side
				if r1 > ny {
					r1 = ny
				}
				c1 := (tc + 1) * side
				if c1 > nx {
					c1 = nx
				}
				ids := make([]field.CellID, 0, (r1-tr*side)*(c1-tc*side))
				for r := tr * side; r < r1; r++ {
					for c := tc * side; c < c1; c++ {
						ids = append(ids, field.CellID(r*nx+c))
					}
				}
				out = append(out, ids)
			}
		}
		return out
	}
	// Spatial binning fallback (TINs): a near-square bin grid over the field
	// bounds, each bin targeting side² cells. Empty bins are dropped.
	n := f.NumCells()
	bins := (n + side*side - 1) / (side * side)
	if bins < 1 {
		bins = 1
	}
	gcols := 1
	for gcols*gcols < bins {
		gcols++
	}
	grows := (bins + gcols - 1) / gcols
	b := f.Bounds()
	bw, bh := b.Width(), b.Height()
	buckets := make([][]field.CellID, gcols*grows)
	var c field.Cell
	for id := 0; id < n; id++ {
		f.Cell(field.CellID(id), &c)
		p := c.Center()
		cx := 0
		if bw > 0 {
			cx = int(float64(gcols) * (p.X - b.Min.X) / bw)
		}
		cy := 0
		if bh > 0 {
			cy = int(float64(grows) * (p.Y - b.Min.Y) / bh)
		}
		if cx >= gcols {
			cx = gcols - 1
		}
		if cy >= grows {
			cy = grows - 1
		}
		bi := cy*gcols + cx
		buckets[bi] = append(buckets[bi], field.CellID(id))
	}
	out := buckets[:0]
	for _, ids := range buckets {
		if len(ids) > 0 {
			out = append(out, ids) // ids ascend: cells were visited in order
		}
	}
	return out
}

// queryTiles runs the scatter-gather pipeline against one pinned state on qc,
// the query's context, scattering on at most workers cores (see fanout); with
// measure, the workers' streams keep no geometry.
func (e *engine) queryTiles(st *state, ctx context.Context, qc *storage.QueryCtx, q geom.Interval, measure bool, workers int) (*Result, error) {
	res := &Result{Query: q}
	// Prune: pure in-memory summary tests — the span's page counts stay zero,
	// which is exactly the property the tiled acceptance tests assert.
	qc.BeginSpan(obs.PhaseTilePrune)
	fb := getFanBuf()
	defer putFanBuf(fb)
	for ti, vr := range st.vr {
		if vr.Intersects(q) {
			fb.items = append(fb.items, ti)
		}
	}
	residual := fb.items
	qc.EndSpan()
	e.ob.Metrics.RecordTiles(len(e.parts)-len(residual), len(residual))
	res.CandidateGroups = len(residual)
	// CellsFetched keeps untiled LinearScan semantics: every cell's interval
	// is accounted as tested — residual tiles test theirs on the sidecar (or
	// records), pruned tiles' cells are covered wholesale by the summary test.
	res.CellsFetched = e.cells
	if len(residual) == 0 {
		res.IO = qc.Stats()
		e.recordIO(storage.Stats{}, 0, res.IO)
		return res, nil
	}

	workers = fanout(workers, len(residual))
	fb.size(workers, len(residual), q, measure)
	filterReads, sidecarReads := 0, 0
	if workers == 1 {
		// Sequential scatter: one PhaseTileScan span per residual tile, so a
		// trace shows each tile's page activity individually.
		for i, ti := range residual {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			qc.BeginSpan(obs.PhaseTileScan)
			fr, sr, err := e.scanTile(ctx, qc, st, ti, fb.streams[0], &fb.parts[i])
			if err != nil {
				return nil, err
			}
			qc.EndSpan()
			filterReads += fr
			sidecarReads += sr
		}
	} else {
		// Parallel scatter: whole tiles on the worker pool under one combined
		// span. Each tile refines into its worker's stream and files its
		// partial under its own index, so the fold order is independent of
		// completion order and the answer identical to the sequential path's.
		qc.BeginSpan(obs.PhaseTileScan)
		fb.ctx, fb.eng, fb.st = ctx, e, st
		if err := e.scatter(ctx, qc, workers, len(residual), fb.tile); err != nil {
			return nil, err
		}
		for _, r := range fb.counts {
			filterReads += r[0]
			sidecarReads += r[1]
		}
		qc.EndSpan()
	}

	// Gather: the tiles' partials folded in tile order — CPU only, so the
	// span's page counts stay zero.
	qc.BeginSpan(obs.PhaseRefine)
	gather(res, fb.parts)
	qc.EndSpan()
	res.IO = qc.Stats()
	e.recordIO(storage.Stats{Reads: filterReads}, sidecarReads, res.IO)
	return res, nil
}

// scanTile is the scatter step for one residual tile: the tile's own
// candidates hook — a sidecar pass, or a subfield tree search — and the fetch
// of what it found, each survivor refined into s in the tile's heap order and
// part set to the tile's window of s. It returns the tile's filter-step
// (subfield tree) and sidecar page-read counts for metric attribution.
func (e *engine) scanTile(ctx context.Context, qc *storage.QueryCtx, st *state, ti int, s *stream, part *partial) (filterReads, sidecarReads int, err error) {
	p := e.parts[ti]
	pr := getProbe()
	defer putProbe(pr)
	// Untraced: the whole tile runs under the query's tile-scan span.
	pr.reset(ctx, qc, s.q, false)
	if err := p.candidates(st.parts[ti], pr); err != nil {
		return 0, 0, err
	}
	if p.byPos {
		s.reserve(len(pr.pos))
	}
	from := s.mark()
	_, err = p.fetch(ctx, qc, pr, s)
	*part = s.since(from)
	return pr.filter.Reads, pr.sidecarReads, err
}
