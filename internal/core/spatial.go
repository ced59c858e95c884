package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// The conventional queries of §2.2.1 (type Q1) find the cells whose closed
// rectangle holds a query point, and the interpolation function of the first
// of them, in id order, that contains it produces the field value. Every
// store keeps a finder of those cells and saves it in its catalog: a regular
// grid's are arithmetic on its lattice, any other field's are listed in a
// uniform grid of buckets over its cell extents. Either is an access path
// into the cell file, not a store: it yields cell ids, and the records are the
// value index's, fetched from the Engine a query names at that engine's state
// — live, or a snapshot's pin. Sample updates change values, never geometry,
// so neither finder changes after it is made.

// finder yields, in ascending order, the ids of cells that may hold a point:
// every cell whose closed rectangle holds it, and perhaps others. encode
// appends its catalog record (catalog.go).
type finder interface {
	cellsAt(dst []uint64, pt geom.Point) []uint64
	encode(b *bytes.Buffer)
}

// spatialMethod is the metrics/trace method label of the conventional query.
const spatialMethod = "Spatial"

// finderOf returns the finder of f's cells: its lattice where f is a regular
// grid, buckets over its cell extents otherwise.
func finderOf(f field.Field) (finder, error) {
	if l := latticeOf(f); l != nil {
		return l, nil
	}
	return newBuckets(f)
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

// buckets is the finder of an irregular field: a side × side grid of
// buckets over the field's cell extents, about one bucket per cell, in CSR
// form — bucket b lists ids[offsets[b]:offsets[b+1]], ascending. A cell is
// listed in every bucket its closed rectangle reaches, so the cells that hold
// a point are among its bucket's.
type buckets struct {
	side    int
	bounds  geom.Rect // the union of the cell rectangles
	offsets []uint32  // side² + 1
	ids     []uint32
}

// newBuckets lists f's cells in buckets over their extents. It refuses a
// field whose extents are not finite, which no bucket grid covers.
func newBuckets(f field.Field) (*buckets, error) {
	n := f.NumCells()
	rects := make([]geom.Rect, n)
	b := &buckets{bounds: geom.EmptyRect()}
	var c field.Cell
	for id := range rects {
		f.Cell(field.CellID(id), &c)
		r := c.Bounds()
		rects[id] = r
		// A NaN bound never widens the grid: its cell holds no point.
		if r.Min.X < b.bounds.Min.X {
			b.bounds.Min.X = r.Min.X
		}
		if r.Min.Y < b.bounds.Min.Y {
			b.bounds.Min.Y = r.Min.Y
		}
		if r.Max.X > b.bounds.Max.X {
			b.bounds.Max.X = r.Max.X
		}
		if r.Max.Y > b.bounds.Max.Y {
			b.bounds.Max.Y = r.Max.Y
		}
	}
	if !b.valid() {
		return nil, fmt.Errorf("core: cell extents %v are not finite", b.bounds)
	}
	b.side = max(1, int(math.Ceil(math.Sqrt(float64(n)))))
	// Count each bucket's cells, turn the counts into offsets, then list the
	// cells in id order, which leaves every bucket ascending.
	b.offsets = make([]uint32, b.side*b.side+1)
	total := 0
	for _, r := range rects {
		x0, y0, x1, y1 := b.reach(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				b.offsets[y*b.side+x+1]++
				total++
			}
		}
	}
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("core: %d bucket entries overflow the locator's offsets", total)
	}
	for i := 1; i < len(b.offsets); i++ {
		b.offsets[i] += b.offsets[i-1]
	}
	b.ids = make([]uint32, total)
	next := append([]uint32(nil), b.offsets[:len(b.offsets)-1]...)
	for id, r := range rects {
		x0, y0, x1, y1 := b.reach(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				k := y*b.side + x
				b.ids[next[k]] = uint32(id)
				next[k]++
			}
		}
	}
	return b, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// valid reports whether the bounds are finite and not inverted.
func (b *buckets) valid() bool {
	r := b.bounds
	return finite(r.Min.X) && finite(r.Min.Y) && finite(r.Max.X) && finite(r.Max.Y) &&
		r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// slot returns the bucket column, or row, of coordinate v on an axis that
// starts at lo and spans w: side·(v − lo)/w, floored and clamped to
// [0, side). Every step is monotone in v, so the buckets a closed rectangle
// reaches are those between its corners', and a point inside it falls in one
// of them. A flat axis (0/0) puts everything in slot 0.
func (b *buckets) slot(v, lo, w float64) int {
	q := float64(b.side) * (v - lo) / w
	switch {
	case !(q >= 0):
		return 0
	case q >= float64(b.side):
		return b.side - 1
	}
	return int(q)
}

// reach returns the bucket columns x0..x1 and rows y0..y1 rectangle r reaches.
func (b *buckets) reach(r geom.Rect) (x0, y0, x1, y1 int) {
	w, h := b.bounds.Max.X-b.bounds.Min.X, b.bounds.Max.Y-b.bounds.Min.Y
	return b.slot(r.Min.X, b.bounds.Min.X, w), b.slot(r.Min.Y, b.bounds.Min.Y, h),
		b.slot(r.Max.X, b.bounds.Min.X, w), b.slot(r.Max.Y, b.bounds.Min.Y, h)
}

// cellsAt appends to dst the ids listed in pt's bucket — none where pt lies
// outside the bounds, which then hold no cell that holds it.
func (b *buckets) cellsAt(dst []uint64, pt geom.Point) []uint64 {
	if !b.bounds.ContainsPoint(pt) {
		return dst
	}
	x, y, _, _ := b.reach(geom.Rect{Min: pt, Max: pt})
	k := y*b.side + x
	for _, id := range b.ids[b.offsets[k]:b.offsets[k+1]] {
		dst = append(dst, uint64(id))
	}
	return dst
}

// Locator is a store's point-query access path: its finder yields candidate
// cells, so a point query reads no index page — only the cells it tests.
type Locator struct {
	finder
	observed

	// probes recycles one candidate buffer per concurrent point query.
	probes sync.Pool
}

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (l *Locator) SetObserver(ob obs.Observer) { l.setObs(ob, spatialMethod) }

// PointQueryContext answers F(v'): the field value at point pt, from the
// candidate cells' records in cells — the value index over the same field,
// whose state (a snapshot's pin included) is the one the answer reads. ctx is
// polled between candidate fetches. The query is one trace, Lo/Hi carrying
// the point's X and Y: a filter span, the finder's arithmetic, reads no page,
// and a decode span fetches the candidates in id order until one whose
// rectangle holds pt has an interpolant that reaches it. The Stats are the
// fetch's, valid even on error, so the pager's totals stay the sum of all
// reported per-operation stats.
func (l *Locator) PointQueryContext(ctx context.Context, cells Engine, pt geom.Point) (float64, storage.Stats, error) {
	tb, start := l.startQuery(spatialMethod, obs.KindPoint, pt.X, pt.Y)
	probe, _ := l.probes.Get().(*[]uint64)
	if probe == nil {
		probe = new([]uint64)
	}
	tb.BeginSpan(obs.PhaseFilter, obs.PageCounts{})
	*probe = l.cellsAt((*probe)[:0], pt)
	tb.EndSpan(obs.PageCounts{})
	var w float64
	found := false
	st, err := cells.FetchCells(ctx, tb, *probe, func(c *field.Cell) bool {
		if c.Bounds().ContainsPoint(pt) {
			w, found = field.Interpolate(c, pt)
		}
		return !found
	})
	l.probes.Put(probe)
	if err == nil {
		l.recordIO(storage.Stats{}, 0, st)
		if !found {
			err = fmt.Errorf("%w: point %v", ErrOutsideField, pt)
		}
	}
	if err != nil {
		w = 0
	}
	l.endQuery(tb, start, err)
	return w, st, err
}
