// Package core implements the paper's primary contribution: value-domain
// indexes for field value queries in continuous field databases.
//
// There is one way in. Build (build.go) builds every configuration — any
// method, tiled or not — and Open (catalog.go) reopens every saved one, from
// the one file layout: a store header and a record per partition; both return
// the Engine. Build dispatches on the method table: a method is one row
// binding whether it cuts subfields (§3.1.2's greedy cost bound over the
// Hilbert order) or stores cells in natural order, what its tree holds, and
// two hooks:
//
//   - candidates turns a value interval into candidate cells — the one step
//     in which the paper's methods differ. LinearScan tests every interval
//     (§2.2.2; over its interval sidecar — no other method has one — by
//     default, over the cell pages without one). I-All searches a 1-D R*-tree
//     holding one entry per cell (§3, the straightforward baseline). I-Hilbert
//     searches a tree holding one entry per subfield, each pointing at the
//     contiguous page run of its cells (§3, Figure 6).
//   - maintain brings the method's index structure to the state after an
//     update batch: nothing for LinearScan, delete/insert on the per-cell
//     tree for I-All, greedy regrouping for I-Hilbert.
//
// A store (store.go) is its partitions — one for an untiled index, one per
// tile of a tiled one, a tile being a partition with a (min, max) value
// summary — on one pager, with the state current on them; the untiled index is
// the one-partition store. One handle implements Engine over it, live or — as
// a snapshot — at the state it pinned, and everything is written once against
// the partitions: the update transaction (update.go: patch, each involved
// partition's maintain hook, one commit, publish), the three-stage aggregate
// (aggregate.go), the single-cell fetch, the file save (catalog.go). Only the
// read pipeline comes in two shapes, each what its workload needs: one
// partition refines as it fetches — candidates, fetch, refine into the
// caller's stream, one gather (query.go) — while tiles prune on their
// summaries, refine survivors where they are scanned, into the scan worker's
// stream, and fold the tiles' windows in tile order (tiled.go). Both ask the
// method for candidates and fetch them through the same two loops (fetch.go):
// ascending heap positions, or merged runs of heap pages.
//
// The cells are stored once. The conventional query of §2.2.1 (spatial.go) is
// a second access path into the same cell file: a locator yields the ids of
// the cells that may hold a point — arithmetic on a regular grid's lattice,
// a bucket's list for any other field, both kept and saved by the store — and
// the engine fetches them (FetchCells) at the state the caller holds — so one
// update batch is one transaction and one epoch, and one snapshot pin, for Q1
// and Q2 together.
//
// All methods share one storage substrate (internal/storage): cells live in
// a slotted heap file, index nodes in R*-tree pages, and every page access
// during a query is charged to a simulated disk clock so the methods are
// compared under the paper's cost model (4 KiB pages, sequential vs random
// access).
package core

import (
	"context"
	"errors"
	"fmt"

	"fielddb/internal/band"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// Method identifies a query-processing strategy.
type Method string

// The methods evaluated in the paper: the keys of the method table.
const (
	MethodLinearScan Method = "LinearScan"
	MethodIAll       Method = "I-All"
	MethodIHilbert   Method = "I-Hilbert"
)

// ErrNoPartition reports an operation a configuration's partition cannot
// serve: approximate value queries from subfield summaries where the method
// forms no subfields.
var ErrNoPartition = errors.New("core: no subfield partition")

// errEmptyQuery rejects an empty query interval before any work.
var errEmptyQuery = errors.New("core: empty query interval")

// ErrOutsideField reports a point query at a point no cell of the field holds,
// or an update of a sample the field does not have.
var ErrOutsideField = errors.New("core: outside the field")

// Result carries the outcome of one field value query.
type Result struct {
	// Query is the value interval that was asked.
	Query geom.Interval
	// CandidateGroups is the number of subfields the filter step selected
	// (the number of candidate cell intervals for I-All, 0 for LinearScan).
	CandidateGroups int
	// CellsFetched is the number of cell intervals tested during the
	// estimation step (every cell for LinearScan). LinearScan's sidecar-served
	// filter tests intervals from the sidecar's columns instead of cell
	// records; the count is the same either way.
	CellsFetched int
	// CellsMatched is the number of fetched cells whose interval
	// intersects the query — the candidate cells of §2.2.2.
	CellsMatched int
	// Regions are the exact answer polygons computed by inverse
	// interpolation (empty for zero-width queries, nil for a measure query).
	// They lie in the vertex chunks of the query's streams, owned by this
	// Result alone: holding one region keeps its chunk alive, appending copies.
	Regions []geom.Polygon
	// Isolines are the answer segments of an exact (zero-width) query (nil
	// for a measure query).
	Isolines [][2]geom.Point
	// RegionCount and IsolineCount are how many answer regions and segments
	// there are: len(Regions) and len(Isolines) where the query kept its
	// geometry, the same counts where it only measured.
	RegionCount, IsolineCount int
	// Area is the total area of the answer regions.
	Area float64
	// MatchedCellArea is the total planar area of the matched cells
	// themselves (not the clipped band polygons) — the exact quantity the
	// aggregate tier's area summaries approximate, accumulated here so an
	// exact fallback can answer AggregateResult.Area from any method.
	MatchedCellArea float64
	// IO is the page-access activity of this query, including the
	// simulated disk time — the quantity the paper's figures plot.
	IO storage.Stats
}

// IndexStats describes a built index.
type IndexStats struct {
	Method       Method
	Cells        int
	CellPages    int // heap-file pages holding cell records
	IndexPages   int // R*-tree pages (0 for LinearScan)
	SidecarPages int // interval-sidecar pages (LinearScan's; 0 without one)
	Groups       int // subfields (cells for I-All, 0 for LinearScan)
	TreeHeight   int
}

// String implements fmt.Stringer.
func (s IndexStats) String() string {
	return fmt.Sprintf("%s: cells=%d cellPages=%d indexPages=%d sidecarPages=%d groups=%d height=%d",
		s.Method, s.Cells, s.CellPages, s.IndexPages, s.SidecarPages, s.Groups, s.TreeHeight)
}

// Index answers field value queries over one field.
type Index interface {
	// Method returns the strategy this index implements.
	Method() Method
	// Query runs the filter + estimation pipeline for the value interval q
	// and returns the exact answer regions along with cost accounting.
	Query(q geom.Interval) (*Result, error)
	// Stats describes the built index.
	Stats() IndexStats
}

// Engine is the full surface of a value index the facade binds to: every
// store's handle implements it, live and — through AcquireSnapshot — pinned.
// What a configuration cannot do comes back as a
// typed error (ErrNoPartition), never as a missing method.
type Engine interface {
	Index
	// QueryContext is Query with cancellation, polled between cell runs,
	// candidate fetches and tiles.
	QueryContext(ctx context.Context, q geom.Interval) (*Result, error)
	// MeasureContext is QueryContext without the answer geometry: the same
	// pipeline refines every survivor into the measure sink, so the Result
	// equals QueryContext's with Regions and Isolines nil — counts, areas and
	// I/O identical.
	MeasureContext(ctx context.Context, q geom.Interval) (*Result, error)
	// QueryBatch executes several value queries as one shared scan; member
	// results are byte-identical to sequential solo QueryContext (or, for a
	// Measure member, MeasureContext) calls.
	QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats)
	// AggregateContext answers an aggregate query from the field summary when
	// its certified bound is within maxErr, exactly otherwise (always exactly
	// where there is no summary).
	AggregateContext(ctx context.Context, q geom.Interval, maxErr float64) (*AggregateResult, error)
	// ApproxQueryContext answers from subfield metadata alone; ErrNoPartition
	// where the method has no subfields.
	ApproxQueryContext(ctx context.Context, q geom.Interval) (*ApproxResult, error)
	// AcquireSnapshot returns the same engine over the state current now:
	// every query through it answers at that epoch, byte for byte, however
	// many update batches commit meanwhile. Holding it keeps the epoch's page
	// versions alive; its Close releases the pin (idempotently) and nothing
	// else.
	AcquireSnapshot() Engine
	// Epoch returns the storage epoch queries read: the current one, or a
	// snapshot's pinned one.
	Epoch() uint64
	// ApplyUpdates mutates f, patches the stored cell records (and
	// LinearScan's interval sidecar) through copy-on-write page overlays,
	// maintains the index structure, and commits the batch as one new storage
	// epoch. Concurrent readers are never blocked and never see a partial
	// batch; on error the field is rolled back and the live epoch is untouched.
	ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error)
	// FetchCells reads the records of the cells ids names, in that order, at
	// the engine's state — through one query context on its pager, traced as
	// one decode span on tb — and hands each decoded cell to visit until visit
	// returns false. A tiled engine delivers a cell under its tile-local id.
	// The returned Stats are the fetch's I/O, published to the pager's totals
	// like a query's, on an error too. It is how the point locator reads the
	// one cell file.
	FetchCells(ctx context.Context, tb *obs.TraceBuilder, ids []uint64, visit func(c *field.Cell) bool) (storage.Stats, error)
	// Locator returns the store's point-query access path, built or opened
	// — its finder, a grid's lattice or any other field's buckets, is in the
	// catalog.
	Locator() *Locator
	// ForEachGroup visits every subfield (none where the method has no
	// partition); Tiles lists the tile directory (nil when untiled).
	ForEachGroup(fn func(group int, iv geom.Interval, cells []field.CellID) bool)
	Tiles() []TileInfo
	// ValueRange returns the value-domain coverage the index itself knows:
	// the union of its partitions' value ranges, never empty.
	ValueRange() geom.Interval
	// SaveFile writes the index to a database file Open reopens, replacing
	// path by rename once the file is complete. Every configuration saves.
	SaveFile(path string) error
	SetObserver(ob obs.Observer)
	SetWorkers(n int)
	Close() error
}

// Region vertices are stored in chunks that double from minRegionChunk points
// up to maxRegionChunk (128 KiB), so a small answer stays small and a large
// one costs a handful of allocations.
const (
	minRegionChunk = 128
	maxRegionChunk = 8192
)

// regionStore owns the vertex storage behind a set of answer regions (chunk is
// the piece being filled). It lives in a stream, not on Result — Results are
// compared with reflect.DeepEqual across paths that chunk differently — and a
// pooled stream drops its chunk once a query ends: callers keep Regions.
type regionStore struct{ chunk []geom.Point }

// band is the per-cell kernel of the estimation step, for a cell whose
// interval already matched q, a band of positive width: it clips the cell onto
// the store's current chunk and keeps the regions that carry area — at most
// two — returning how many it kept and their areas in the same order. Boundary
// cells can contribute degenerate slivers (the band touches the cell only
// along an edge); they carry no area and break downstream convex clipping, so
// they are dropped. With keep, each kept region is appended to dst as a
// sub-slice of the chunk capped at its own end, so appending to a region copies
// it instead of running into its neighbour, and the chunks belong to the
// regions from then on: they are never reused, for another query or otherwise.
// Without it the store measures: the chunk is scratch every cell clips from
// the start of, and only the counts and areas leave — so a Result's areas are
// the same float operations in the same order, geometry or not.
func (rs *regionStore) band(dst []geom.Polygon, keep bool, c *field.Cell, q geom.Interval) ([]geom.Polygon, int, [2]float64) {
	if !keep {
		rs.chunk = rs.chunk[:0]
	}
	if cap(rs.chunk)-len(rs.chunk) < band.MaxCellVertices {
		rs.chunk = make([]geom.Point, 0, min(max(2*cap(rs.chunk), minRegionChunk), maxRegionChunk))
	}
	start := len(rs.chunk)
	pts, first := field.AppendBand(rs.chunk, c, q.Lo, q.Hi)
	kept := start
	var areas [2]float64
	n := 0
	for _, end := range [2]int{start + first, len(pts)} {
		pg := geom.Polygon(pts[start:end:end])
		start = end
		a := pg.Area()
		if a <= 1e-12 {
			continue
		}
		if keep {
			dst = append(dst, pg)
		}
		areas[n] = a
		n++
		kept = end
	}
	rs.chunk = pts[:kept]
	return dst, n, areas
}

// writeCellsStride is how many cells construction writes between
// cancellation polls.
const writeCellsStride = 512

// writeCells appends the cells of f to a fresh heap file on pager in the
// order given by ids, returning the heap file, which addresses each cell by
// its write order, and each cell's planar area in that order (the aggregate
// tier's fit weights — value updates never move vertices, so the areas stay
// valid for the index's lifetime). LinearScan's non-empty codec name also
// builds the columnar interval sidecar with that codec: each cell's (min, max)
// — taken by partial decode from the very record bytes just appended, so the
// sidecar is byte-identical to CellIntervalFromRecord on the stored records —
// is buffered and written to contiguous pages right after the heap flush. ctx
// is polled every writeCellsStride cells so a canceled build
// stops without writing the rest of the field.
func writeCells(ctx context.Context, f field.Field, pager *storage.Pager, ids []field.CellID, codec string) (*storage.HeapFile, *storage.IntervalSidecar, []float64, error) {
	sidecar := codec != ""
	heap := storage.NewHeapFile(pager)
	areas := make([]float64, len(ids))
	var lo, hi []float64
	if sidecar {
		lo = make([]float64, len(ids))
		hi = make([]float64, len(ids))
	}
	var c field.Cell
	var buf []byte
	for i, id := range ids {
		if i%writeCellsStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
		}
		f.Cell(id, &c)
		if err := c.Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("core: %w", err)
		}
		buf = field.AppendCell(buf[:0], &c)
		if _, err := heap.Append(buf); err != nil {
			return nil, nil, nil, fmt.Errorf("core: storing cell %d: %w", id, err)
		}
		areas[i] = c.Area()
		if sidecar {
			iv, err := field.CellIntervalFromRecord(buf)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("core: sidecar interval for cell %d: %w", id, err)
			}
			lo[i], hi[i] = iv.Lo, iv.Hi
		}
	}
	if err := heap.Flush(); err != nil {
		return nil, nil, nil, err
	}
	var sc *storage.IntervalSidecar
	if sidecar {
		var err error
		sc, err = storage.BuildIntervalSidecarWith(pager, lo, hi, codec)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	return heap, sc, areas, nil
}
