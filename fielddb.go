// Package fielddb is a continuous-field database with value-domain indexing,
// reproducing "Indexing Values in Continuous Field Databases" (Kang,
// Faloutsos, Laurini, Servigne — EDBT 2002).
//
// A continuous field represents a natural phenomenon — terrain elevation,
// temperature, urban noise — as a subdivision of space into cells carrying
// measured sample points, plus interpolation functions that define the value
// everywhere else. fielddb answers the two query classes of such databases:
//
//   - conventional queries, F(v'): the value at a position, served by a 2-D
//     R*-tree over cell extents;
//   - field value queries, F⁻¹(w' ≤ w ≤ w″): the regions where the value
//     falls in a range, served by the paper's I-Hilbert subfield index.
//
// # Quick start
//
//	dem, _ := fielddb.TerrainDEM(256, 42)           // or grid.New / tin.New
//	db, _ := fielddb.Open(dem, fielddb.Options{})   // builds the I-Hilbert index
//	res, _ := db.ValueQuery(700, 750)               // elevations in [700, 750]
//	for _, region := range res.Regions { ... }      // exact answer polygons
//	w, _ := db.PointQuery(geom.Pt(12.5, 90.25))     // conventional query
//
// The heavy lifting lives in the internal packages (documented in
// DESIGN.md): internal/core runs LinearScan, I-All and I-Hilbert on one query
// executor over a paged storage layer with a simulated disk clock;
// internal/bench regenerates every figure of the paper's evaluation.
package fielddb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
	"fielddb/internal/tin"
	"fielddb/internal/workload"
)

// Re-exported core types, so typical applications only import fielddb and
// the geometry package.
type (
	// Field is a continuous scalar field: a cell subdivision plus linear
	// interpolation. *grid.DEM and *tin.TIN implement it.
	Field = field.Field
	// Cell is one element of a field's subdivision.
	Cell = field.Cell
	// Result is the outcome of a value query.
	Result = core.Result
	// IndexStats describes a built index.
	IndexStats = core.IndexStats
	// Interval is a closed range on the value domain.
	Interval = geom.Interval
	// Point is a spatial position.
	Point = geom.Point
	// Polygon is an answer region.
	Polygon = geom.Polygon
	// Method names a query-processing strategy.
	Method = core.Method
	// CellID identifies a cell within a field.
	CellID = field.CellID
)

// Re-exported observability types (internal/obs), so applications install
// tracers and read metrics without importing internal packages.
type (
	// Tracer receives one QueryTrace per finished query. Implementations
	// must be safe for concurrent use.
	Tracer = obs.Tracer
	// TracerFunc adapts a function to the Tracer interface.
	TracerFunc = obs.TracerFunc
	// QueryTrace is the record of one finished query: its phase spans and
	// the page counts of each, summing to the query's Result.IO.
	QueryTrace = obs.QueryTrace
	// Span is one phase of one query.
	Span = obs.Span
	// Phase names a query pipeline stage (plan, filter, refine, decode,
	// contour-assemble).
	Phase = obs.Phase
	// TraceCollector is a ring-buffer Tracer retaining the most recent
	// traces.
	TraceCollector = obs.Collector
	// MetricsSnapshot is a point-in-time copy of the engine's cumulative
	// metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// NewTraceCollector returns a Tracer that retains the last n traces.
func NewTraceCollector(n int) *TraceCollector { return obs.NewCollector(n) }

// Subfield describes one subfield of a partition-based value index: its
// value interval and member cells in physical storage order.
type Subfield struct {
	Interval Interval
	Cells    []CellID
}

// The query-processing strategies of the paper.
const (
	LinearScan = core.MethodLinearScan
	IAll       = core.MethodIAll
	IHilbert   = core.MethodIHilbert
)

// Options configures Open. Everything else about a database is fixed: 4 KiB
// pages (as in the paper's experiments), a 65536-page sharded buffer pool per
// pager, the default simulated disk model, and Hilbert linearization under the
// paper's cost model (§3.1.2's interval size max − min + 1). Comparisons
// across those axes are measurement exercises and run through internal/bench.
type Options struct {
	// Method selects the value index; the default is IHilbert, the paper's
	// proposed method.
	Method Method
	// Workers bounds the worker pool that parallelizes index construction
	// and the refinement step of a value query: its page runs cut into one
	// contiguous block per worker, or its residual tiles. A query fans out
	// only onto cores no other executing value query holds, so a lone query
	// takes every idle core and a loaded database runs one query per core;
	// batched and windowed queries always refine on one. The default, 0,
	// means GOMAXPROCS at Open; 1 is strictly sequential. Results and
	// per-query I/O stats are identical regardless of Workers.
	Workers int
	// TileSide, when positive, splits the field into TileSide×TileSide-cell
	// tiles, each a self-contained partition with its own heap segment and
	// index (LinearScan's: its interval sidecar), under a scatter-gather
	// planner that prunes whole tiles by their (min, max) value summary before
	// reading a single page. This is the scale-out read path for large
	// terrains: a narrow value band touches only the tiles whose summary
	// intersects it. A tiling folds its tiles' answers in tile order, each in
	// its heap order: deterministic, and the untiled store's answer as a set
	// (the same cells and pieces, areas up to summation order). TileSide must
	// be at least 2; IAll does not tile (ErrBadTiling). The default, zero,
	// builds the single-partition index.
	TileSide int
	// SidecarCodec selects the page codec of LinearScan's interval sidecar
	// (a method with a tree keeps none and refuses one): "raw" (FSC1, fixed
	// 255 entries per 4 KiB page) or "packed" (FSC2, delta-encoded and
	// bit-packed, typically 3-6× the entries per page and proportionally
	// fewer filter reads). Empty selects raw. Answers are byte-identical.
	SidecarCodec string
	// Tracer, when set, receives one QueryTrace per finished query (value,
	// point, approximate, and contour-assembly alike). Nil — the default —
	// disables tracing entirely; the nil-tracer path adds no allocations to
	// the query pipeline. See also DB.SetTracer.
	Tracer Tracer
	// BatchWindow, when positive, turns on slot-gated group commit for
	// concurrent value queries. The database keeps one execution slot per
	// core (GOMAXPROCS at Open). A value query that arrives while a slot is
	// free takes it and runs at once on the plain solo path: the window costs
	// it nothing. One that finds every slot busy — it would have queued for a
	// core anyway — waits in a group with the others that arrive meanwhile,
	// and the group executes as one shared scan (a single filter pass over
	// the sidecar or index evaluates every group member, and deduplicated
	// cell runs are fetched once for all of them) as soon as a running group
	// finishes, or after BatchWindow, whichever is first. So BatchWindow is
	// an upper bound on the latency the gate adds to a query — at most its
	// length, and nothing when a core is free — not a charge on every query,
	// and groups grow only as large as the backlog. Each query's Result —
	// including its per-query I/O statistics — is byte-identical to solo
	// execution. The default, zero, keeps every query executing alone. See
	// also DB.ValueQueryBatch, which batches an explicit slice of intervals
	// without any window, and the queue counters of Metrics (GroupsFreeSlot,
	// GroupsHandover, GroupsExpired, WindowWaitSum/Max).
	BatchWindow time.Duration
}

// defaultPoolPages is the buffer-pool capacity of every pager the facade
// opens: 65536 pages (256 MiB of 4 KiB pages). Per-query I/O statistics model
// a cold start regardless of pool contents.
const defaultPoolPages = 1 << 16

// DB is an opened continuous-field database: one field, its cells stored
// once under the value index, and the point locator that finds cells in them —
// the lattice of a DEM, or for a TIN a spatial R*-tree on a pager of its own.
// Its query methods are the embedded surface's (see Querier).
type DB struct {
	surface
	field Field
	pager *storage.Pager // the cell store: value index, cell records, summary
	// spPager holds a TIN's spatial R*-tree, read-only after Open; nil for a
	// DEM, which needs no tree.
	spPager *storage.Pager
	// updateMu serializes UpdateSamples batches around the cached value
	// range; no query path takes it.
	updateMu sync.Mutex
}

// Open builds the value index for f and the locator of its point queries: a
// DEM's lattice, kept by the value index, or a TIN's spatial R*-tree.
func Open(f Field, opts Options) (*DB, error) {
	return OpenContext(context.Background(), f, opts)
}

// OpenContext is Open with construction cancellation: ctx is polled between
// cell-write batches and between per-subfield metadata work units, so a
// canceled open abandons the build and returns ctx's error.
func OpenContext(ctx context.Context, f Field, opts Options) (*DB, error) {
	if f == nil {
		return nil, fmt.Errorf("fielddb: nil field")
	}
	if f.NumCells() == 0 {
		return nil, fmt.Errorf("fielddb: field has no cells")
	}
	method := opts.Method
	if method == "" {
		method = IHilbert
	}
	newPager := func() *storage.Pager {
		return storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, defaultPoolPages)
	}
	pager := newPager()
	workers := resolveWorkers(opts.Workers)
	buildValue := func() (core.Engine, error) {
		return core.Build(ctx, f, pager, core.BuildOptions{
			Method:   method,
			TileSide: opts.TileSide,
			Workers:  workers,
			Codec:    opts.SidecarCodec,
		})
	}
	var (
		idx     core.Engine
		sp      *core.SpatialIndex
		spPager *storage.Pager
		err     error
		spErr   error
	)
	switch f.(type) {
	case *grid.DEM:
		// A grid is its own spatial index: the value index keeps the lattice,
		// and the cell that holds a point is arithmetic on it.
		idx, err = buildValue()
	default:
		// The spatial tree gets its own pager: its descents are accounted
		// apart from the value store, and SaveIndex, which snapshots the value
		// pager, writes no tree page.
		spPager = newPager()
		if workers > 1 {
			// The two indexes write to disjoint pagers and only read f (Cell
			// fills a caller-owned struct), so they build concurrently.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp, spErr = core.BuildSpatial(f, spPager)
			}()
			idx, err = buildValue()
			wg.Wait()
		} else {
			idx, err = buildValue()
			if err == nil {
				sp, spErr = core.BuildSpatial(f, spPager)
			}
		}
	}
	if errors.Is(err, ErrUnknownMethod) || errors.Is(err, ErrBadTiling) {
		return nil, err // the Options were refused; nothing was built
	}
	if err != nil {
		return nil, fmt.Errorf("fielddb: building %s: %w", method, err)
	}
	if spErr != nil {
		return nil, fmt.Errorf("fielddb: spatial index: %w", spErr)
	}
	db := &DB{field: f, pager: pager, spPager: spPager}
	db.index = idx
	if sp != nil {
		db.spatial = sp
	} else {
		db.spatial = idx.GridLocator()
	}
	db.ob = &obs.Observer{Tracer: opts.Tracer, Metrics: obs.NewMetrics()}
	vr := f.ValueRange()
	db.vrange.Store(&vr)
	if opts.BatchWindow > 0 {
		db.batcher = core.NewBatcher(idx, opts.BatchWindow, db.ob.Metrics)
	}
	db.installObservers()
	return db, nil
}

// resolveWorkers is the worker bound an Options or OpenIndexOptions Workers
// of n means: 0 is every core, GOMAXPROCS now.
func resolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SetTracer installs (or, with nil, removes) the per-query tracer. Like
// SetWorkers it is safe only between queries, not while queries run.
func (db *DB) SetTracer(t Tracer) {
	db.ob.Tracer = t
	db.installObservers()
}

// Close marks the database closed and releases its pagers (a no-op for the
// in-memory disks Open builds on, but it makes the lifecycle explicit and
// fails subsequent queries fast). Close is idempotent; it does not wait for
// in-flight queries. Queries after Close — through the DB or any Snapshot of
// it — return ErrClosed.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := db.pager.Close()
	if db.spPager != nil {
		if spErr := db.spPager.Close(); err == nil {
			err = spErr
		}
	}
	return err
}

// Field returns the underlying field.
func (db *DB) Field() Field { return db.field }

// SetWorkers rebounds the refinement worker pool for subsequent value
// queries. It is safe only between queries, not while queries run.
func (db *DB) SetWorkers(n int) { db.index.SetWorkers(n) }

// TileInfo describes one tile of a tiled value index: its cell count,
// spatial MBR, and (min, max) value summary — the planner's prune inputs.
type TileInfo = core.TileInfo

// Tiles returns the tile directory of a tiled value index (Options.TileSide
// was set), or nil for a single-partition index.
func (db *DB) Tiles() []TileInfo { return db.index.Tiles() }

// IOStats returns the cumulative page-access statistics of the value index's
// store. Across any set of (possibly concurrent) queries, the increase of
// IOStats equals the sum of those queries' per-query Result.IO.
func (db *DB) IOStats() storage.Stats { return db.pager.Stats() }

// SpatialIOStats returns the cumulative page-access statistics of a TIN's
// spatial R*-tree pager: the tree descents of point queries, and nothing
// else — the cell a point query then fetches is read from the value store and
// accounts in IOStats, beside the value queries and update batches. A DEM
// locates by its lattice, reads no tree page, and reports zero.
func (db *DB) SpatialIOStats() storage.Stats {
	if db.spPager == nil {
		return storage.Stats{}
	}
	return db.spPager.Stats()
}

// EngineMetrics is the full observability snapshot of a DB: the engine's
// cumulative query metrics plus the I/O totals and buffer-pool shard
// statistics of the value store and of a TIN's spatial tree.
type EngineMetrics struct {
	// Engine is the cumulative query-level registry: queries by method,
	// latency histogram, pages read by kind, worker-pool utilization.
	Engine MetricsSnapshot
	// ValueIO and SpatialIO are the cumulative per-pager page statistics
	// (identical to IOStats and SpatialIOStats; SpatialIO is zero for a DEM).
	ValueIO, SpatialIO storage.Stats
	// ValuePool and SpatialPool are per-shard buffer-pool hit/miss counters
	// (SpatialPool is nil for a DEM, which has no tree pager).
	ValuePool, SpatialPool []storage.PoolShardStats
}

// poolLine renders one store's pool shards as an aggregate hit ratio.
func poolLine(b *strings.Builder, name string, shards []storage.PoolShardStats) {
	var hits, misses int64
	for _, s := range shards {
		hits += s.Hits
		misses += s.Misses
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(b, "  %-8s shards=%d hits=%d misses=%d ratio=%.3f\n",
		name, len(shards), hits, misses, ratio)
}

// String renders the snapshot as an aligned text report (the format
// fieldbench -metrics prints).
func (m EngineMetrics) String() string {
	var b strings.Builder
	b.WriteString(m.Engine.String())
	b.WriteString("store I/O\n")
	fmt.Fprintf(&b, "  %-8s reads=%d (seq=%d rand=%d) hits=%d sim=%v\n",
		"value", m.ValueIO.Reads, m.ValueIO.SeqReads, m.ValueIO.RandReads,
		m.ValueIO.CacheHits, m.ValueIO.SimElapsed)
	fmt.Fprintf(&b, "  %-8s reads=%d (seq=%d rand=%d) hits=%d sim=%v\n",
		"spatial", m.SpatialIO.Reads, m.SpatialIO.SeqReads, m.SpatialIO.RandReads,
		m.SpatialIO.CacheHits, m.SpatialIO.SimElapsed)
	b.WriteString("buffer pool\n")
	poolLine(&b, "value", m.ValuePool)
	poolLine(&b, "spatial", m.SpatialPool)
	return b.String()
}

// Metrics returns a point-in-time snapshot of the DB's observability state:
// engine-level query metrics plus per-store I/O and buffer-pool statistics.
// It is safe to call concurrently with queries.
func (db *DB) Metrics() EngineMetrics {
	m := EngineMetrics{
		Engine:    db.QueryMetrics(),
		ValueIO:   db.pager.Stats(),
		ValuePool: db.pager.PoolShardStats(),
	}
	if db.spPager != nil {
		m.SpatialIO, m.SpatialPool = db.spPager.Stats(), db.spPager.PoolShardStats()
	}
	return m
}

// SaveIndex writes the built value index (cell heaps, LinearScan's sidecars or
// R*-tree pages, and catalog) to a single database file that OpenIndex can
// query without rebuilding. Every method saves, tiled or not — the file is the
// index's partitions, one record each, so the reopened index prunes, filters
// and updates exactly like this one. The file is written beside path and
// renamed over it once complete: a failed save leaves path as it was. path
// must not exist or be empty.
func (db *DB) SaveIndex(path string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	return db.index.SaveFile(path)
}

// StoredIndex is a value index opened from a database file written by
// SaveIndex: it answers value queries straight from the file's pages,
// without the original Field, whatever the method and tiling it was saved
// from. Its query methods are the embedded surface's (see Querier). A file
// saved from a DEM carries its lattice, so point queries answer as the live
// DB's do; one saved from a TIN carries no spatial tree, and point queries
// fail with ErrNoSpatialIndex.
type StoredIndex struct {
	surface
}

// OpenIndexOptions configures OpenIndexWith. The zero value matches
// OpenIndex: a 65536-page buffer pool, refinement on every idle core, no
// tracer, no admission window.
type OpenIndexOptions struct {
	// PoolPages is the buffer-pool capacity in pages (default 65536, as for
	// Open).
	PoolPages int
	// Workers bounds the refinement worker pool exactly as Options.Workers
	// does: 0, the default, means GOMAXPROCS at open; 1 is strictly
	// sequential.
	Workers int
	// Tracer, when set, receives one QueryTrace per finished query.
	Tracer Tracer
	// BatchWindow, when positive, arms the same slot-gated group commit
	// Options.BatchWindow gives a live DB: a value query runs at once while a
	// core is free, and the ones that find every core busy coalesce onto one
	// shared scan of the stored pages, after waiting at most BatchWindow.
	BatchWindow time.Duration
}

// OpenIndex opens a database file written by SaveIndex with default options.
func OpenIndex(path string) (*StoredIndex, error) {
	return OpenIndexWith(path, OpenIndexOptions{})
}

// OpenIndexWith opens a database file written by SaveIndex, with control over
// the buffer pool, refinement parallelism, tracing, and the admission window.
// The file is opened read-only and never written; a missing one fails with an
// error matching fs.ErrNotExist. A file written at any other catalog version
// fails with ErrUnsupportedVersion.
func OpenIndexWith(path string, opts OpenIndexOptions) (*StoredIndex, error) {
	pool := opts.PoolPages
	if pool == 0 {
		pool = defaultPoolPages
	}
	p, err := core.Open(path, pool)
	if err != nil {
		return nil, err
	}
	p.SetWorkers(resolveWorkers(opts.Workers))
	s := &StoredIndex{}
	s.index = p
	s.ob = &obs.Observer{Tracer: opts.Tracer, Metrics: obs.NewMetrics()}
	// A stored file has no Field to ask: the partition's value-domain
	// coverage is cached once, here.
	vr := p.ValueRange()
	s.vrange.Store(&vr)
	if opts.BatchWindow > 0 {
		s.batcher = core.NewBatcher(p, opts.BatchWindow, s.ob.Metrics)
	}
	if g := p.GridLocator(); g != nil {
		s.spatial = g
	}
	s.installObservers()
	return s, nil
}

// Close marks the stored index closed and releases the underlying file.
// Close is idempotent; queries after Close return ErrClosed.
func (s *StoredIndex) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.index.Close()
}

// SetWorkers rebounds the refinement worker pool for subsequent value
// queries. It is safe only between queries, not while queries run.
func (s *StoredIndex) SetWorkers(n int) { s.index.SetWorkers(n) }

// Metrics returns a snapshot of the stored index's cumulative engine metrics
// (the same snapshot as QueryMetrics).
func (s *StoredIndex) Metrics() MetricsSnapshot { return s.QueryMetrics() }

// SetTracer installs (or, with nil, removes) the per-query tracer. Like
// SetWorkers it is safe only between queries, not while queries run.
func (s *StoredIndex) SetTracer(t Tracer) {
	s.ob.Tracer = t
	s.installObservers()
}

// TerrainDEM builds a deterministic fractal terrain DEM with side×side
// cells (side must be a power of two) — a convenient realistic dataset for
// examples and tests.
func TerrainDEM(side int, seed int64) (*grid.DEM, error) {
	return workload.Terrain(side, seed)
}

// NoiseTIN builds a synthetic urban-noise TIN with roughly 2×points
// triangles, mirroring the paper's Lyon dataset.
func NoiseTIN(points int, seed int64) (*tin.TIN, error) {
	return workload.NoiseTIN(points, seed)
}
