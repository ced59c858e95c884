package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// This file is the store and its one handle: what an index is whatever it
// indexes and however many partitions it is cut into — a pager, the partitions
// on it and the state current on them — and what a reader does with it: pin
// that state, fan work out over forked query contexts, fetch single cells for
// the point locator, write the store to a file. The read pipelines are in
// query.go and tiled.go, the update transaction in update.go.

// store is a value index: its partitions — one for an untiled index, one per
// tile of a tiled one — and everything they share.
type store struct {
	// label names the store in traces and metrics: the method, or
	// "Tiled-<method>" when the field is cut into tiles of tileSide cells a
	// side (0 when untiled), each run by method.
	label    string
	method   Method
	tileSide int
	pager    *storage.Pager
	parts    []*partition
	// tileOf maps a cell to the tile that owns it; nil for an untiled store,
	// whose one partition owns every cell under its own id.
	tileOf []int32
	// cells and area are the field-wide cell count and planar cell area, the
	// sums of the partitions': the aggregate tier's exact denominators.
	cells int
	area  float64
	// finder yields the cells that may hold a point: a regular grid's
	// lattice, any other field's buckets (spatial.go).
	finder finder
	// snap is the current MVCC state. Readers load it once, pin its epoch and
	// run entirely against it; an update batch publishes a fresh state only
	// after committing its page overlays, so no reader ever observes a
	// half-updated index. updMu serializes updaters (and SaveFile against
	// them); readers never take it.
	snap  atomic.Pointer[state]
	updMu sync.Mutex
	// workers bounds the goroutines a lone query's scatter fans out on (see
	// fanout); 1 keeps every query single-threaded.
	workers int
	observed

	// The field summary of the aggregate tier: its contiguous page run
	// (sumPages == 0 when absent: such a store answers aggregates exactly) and,
	// for an untiled index built in memory, each cell's planar area in heap
	// order — with them an update batch refits the summary, without them it
	// widens the summary's certified slack.
	sumFirst storage.PageID
	sumPages int
	areas    []float64
}

// newStore returns an empty store of cells cells on pager, for Build or the
// catalog decoder to add partitions to. A tiled configuration reports its
// per-tile method with a "Tiled-" prefix, so traces and benchmark rows never
// collide with the untiled build of the same method.
func newStore(pager *storage.Pager, method Method, tileSide, cells int) *store {
	s := &store{label: string(method), method: method, tileSide: tileSide, pager: pager, cells: cells}
	if tileSide != 0 {
		s.label = "Tiled-" + s.label
		s.tileOf = make([]int32, cells)
	}
	return s
}

// add appends a partition: a tile with the field ids it owns, or an untiled
// store's only one.
func (s *store) add(p *partition) {
	for _, id := range p.ids {
		s.tileOf[id] = int32(len(s.parts))
	}
	s.parts = append(s.parts, p)
	s.area += p.area
}

// publish makes st the store's first state and returns the live handle.
func (s *store) publish(st *state) *engine {
	s.snap.Store(st)
	return &engine{store: s}
}

// state is one epoch's immutable view of a store. It is never mutated after
// snap.Store publishes it; updates build a whole new one.
type state struct {
	epoch uint64
	// vr is the value range of each partition: every cell interval of the
	// partition lies inside it. Their union is the store's ValueRange, each is
	// its tile's prune test, and they only ever widen under updates.
	vr []geom.Interval
	// parts are the partitions' index structures valid at this epoch.
	parts []*partState
}

// partState is one partition's index structure at one epoch, each part nil
// where the method has none.
type partState struct {
	tree   *rstar.Tree // per cell (I-All) or per subfield
	groups []groupMeta // subfields, in partition order
}

// engine is the handle on a store, and the one implementation of Engine: live
// at whatever state is current, or — as a snapshot — at the state it pinned.
// Every operation is written once against a pinned state, so a snapshot needs
// no code of its own.
type engine struct {
	*store
	pin  *state
	once sync.Once // guards a snapshot's unpin
}

// cur returns the state operations run against.
func (e *engine) cur() *state {
	if e.pin != nil {
		return e.pin
	}
	return e.snap.Load()
}

// pinState pins the epoch of the state to run against, retrying across the
// narrow window where an update batch has committed a new epoch (retiring the
// loaded one) but not yet published its state. Every pinState is paired with
// one unpin; while the pin is held, beginQueryAt at the state's epoch cannot
// fail.
func (e *engine) pinState() *state {
	for {
		st := e.cur()
		if e.pager.PinEpoch(st.epoch) {
			return st
		}
		if e.pin != nil {
			panic("core: snapshot used after Close")
		}
		runtime.Gosched()
	}
}

func (e *engine) unpin(st *state) { e.pager.UnpinEpoch(st.epoch) }

// AcquireSnapshot implements Engine: the same store, held at the state current
// now.
func (e *engine) AcquireSnapshot() Engine { return &engine{store: e.store, pin: e.pinState()} }

// Locator implements Engine: a fresh locator over the store's finder.
func (e *engine) Locator() *Locator { return &Locator{finder: e.finder} }

// Epoch returns the storage epoch queries read: the current one, or a
// snapshot's pinned one.
func (e *engine) Epoch() uint64 { return e.cur().epoch }

// ValueRange returns the union of the partitions' value ranges — the field's
// full value range, kept a superset across live updates. It lets a stored
// index serve open-ended value queries (ValueAbove/ValueBelow) without the
// original field.
func (e *engine) ValueRange() geom.Interval {
	vr := geom.EmptyInterval()
	for _, iv := range e.cur().vr {
		vr = vr.Union(iv)
	}
	return vr
}

// Close releases a snapshot's pin (idempotently); on the live handle it
// releases the underlying store — the database file of an opened index, a
// no-op for in-memory builds.
func (e *engine) Close() error {
	if e.pin == nil {
		return e.pager.Close()
	}
	e.once.Do(func() { e.unpin(e.pin) })
	return nil
}

// beginQueryAt opens a query context pinned at epoch. The caller must already
// hold its own pin at that epoch, which makes the underlying BeginQueryAt
// infallible: a held pin keeps the epoch at or above the compaction low-water
// mark, so a second pin at the same epoch always succeeds.
func beginQueryAt(pager *storage.Pager, epoch uint64) *storage.QueryCtx {
	qc, ok := pager.BeginQueryAt(epoch)
	if !ok {
		panic("core: snapshot epoch compacted away under an active pin")
	}
	return qc
}

// route returns the partition that owns cell id and the cell's id there: a
// cell belongs to the tile the layout put it in, under its rank among that
// tile's ascending field ids. The update transaction and the single-cell fetch
// both locate records through it.
func (s *store) route(id field.CellID) (part int, local field.CellID, err error) {
	if s.tileOf == nil {
		return 0, id, nil
	}
	part = int(s.tileOf[id])
	i, ok := slices.BinarySearch(s.parts[part].ids, id)
	if !ok {
		return 0, 0, fmt.Errorf("core: cell %d not in tile %d", id, part)
	}
	return part, field.CellID(i), nil
}

// FetchCells implements Engine: one query context at the pinned state reads
// every record, in the order given, under one decode span on tb, until visit
// declines the next. The records are decoded out of the page image, so a cell
// arrives under the id its partition stores it by. The returned Stats are
// published — on an error too, like any query's partial activity.
func (e *engine) FetchCells(ctx context.Context, tb *obs.TraceBuilder, ids []uint64, visit func(*field.Cell) bool) (storage.Stats, error) {
	st := e.pinState()
	defer e.unpin(st)
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Recycle()
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseDecode)
	var c field.Cell
	for _, id := range ids {
		err := ctx.Err()
		if err == nil {
			err = e.decodeCell(qc, field.CellID(id), &c)
		}
		if err != nil {
			return qc.Stats(), err
		}
		if !visit(&c) {
			break
		}
	}
	qc.EndSpan()
	return qc.Stats(), nil
}

// decodeCell reads cell id's record through qc into c.
func (s *store) decodeCell(qc *storage.QueryCtx, id field.CellID, c *field.Cell) error {
	part, local, err := s.route(id)
	if err != nil {
		return err
	}
	p := s.parts[part]
	pos, err := p.position(local)
	if err != nil {
		return err
	}
	rid, err := p.heap.Locate(pos)
	if err != nil {
		return err
	}
	var decodeErr error
	err = qc.ReadRun(rid.Page, rid.Page, func(_ storage.PageID, page []byte) bool {
		var rec []byte
		if rec, decodeErr = storage.RecordInPage(page, rid.Slot); decodeErr == nil {
			decodeErr = field.DecodeCell(rec, c)
		}
		return true
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// SetWorkers bounds the worker pool a value query scatters on when it runs
// alone: contiguous blocks of page runs for an untiled index, whole residual
// tiles for a tiled one, on no more workers than there are idle cores (see
// fanout). The answer and the per-query accounting are identical to the
// single-threaded run; 1 keeps every query on its own goroutine. Call before
// issuing queries; it is not synchronized with queries in flight.
func (s *store) SetWorkers(n int) { s.workers = clampWorkers(n) }

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (s *store) SetObserver(ob obs.Observer) { s.setObs(ob, s.label) }

// Method returns the name the store reports: the method, or "Tiled-<inner>".
func (s *store) Method() Method { return Method(s.label) }

// scatter runs scan(w, i, child) for every item in [0, n) on a pool of workers
// — w names the one running it — each item on its own fork of qc, and merges
// the forks back into qc strictly in item order, so qc ends up charged exactly
// as if the items had run on it one after another. Whatever scan produces it
// must file under i, or under w and i; the caller folds the pieces in item
// order afterwards. The forks go back to the context pool once merged, or once
// the scatter failed. Per-item busy time is measured only when a metrics
// registry is installed, keeping the unobserved path timing-free. The scatter
// itself allocates nothing: its state is pooled.
func (s *store) scatter(ctx context.Context, qc *storage.QueryCtx, workers, n int, scan func(w, i int, child *storage.QueryCtx) error) error {
	sc := scatters.Get().(*scatterState)
	sc.qc, sc.scan, sc.timed = qc, scan, s.ob.Metrics != nil
	sc.busy.Store(0)
	sc.forks = append(sc.forks[:0], make([]*storage.QueryCtx, n)...)
	var wallStart time.Time
	if sc.timed {
		wallStart = time.Now()
	}
	err := parallelDo(ctx, workers, n, sc.item)
	if sc.timed {
		s.ob.Metrics.RecordWorkers(n, time.Duration(sc.busy.Load()), time.Since(wallStart))
	}
	for _, child := range sc.forks {
		if child == nil {
			continue
		}
		if err == nil {
			qc.Merge(child)
		}
		child.Recycle()
	}
	clear(sc.forks)
	sc.qc, sc.scan = nil, nil
	scatters.Put(sc)
	return err
}

// scatterState is the state of one scatter: the forks its items ran on and
// the busy time they took. It is pooled with its item method bound once.
type scatterState struct {
	qc    *storage.QueryCtx
	scan  func(w, i int, child *storage.QueryCtx) error
	timed bool
	busy  atomic.Int64
	forks []*storage.QueryCtx
	item  func(w, i int) error
}

var scatters = sync.Pool{New: func() any {
	sc := new(scatterState)
	sc.item = sc.run
	return sc
}}

// run is item i of the scatter, on worker w and a fork of its own.
func (sc *scatterState) run(w, i int) error {
	var t0 time.Time
	if sc.timed {
		t0 = time.Now()
	}
	sc.forks[i] = sc.qc.Fork()
	if err := sc.scan(w, i, sc.forks[i]); err != nil {
		return err
	}
	if sc.timed {
		sc.busy.Add(int64(time.Since(t0)))
	}
	return nil
}

// SaveFile implements Engine: it writes the store — every page of its pager,
// then the catalog — to a database file Open reopens. Every configuration
// saves. The file is written under a temporary name in path's directory,
// synced, and renamed over path once complete — then the directory is synced
// too — so a save that fails, or a crash at any point, leaves path as it was
// found (absent, or the caller's empty file) or holding the whole new file. A file that already holds anything is refused untouched.
func (s *store) SaveFile(path string) (err error) {
	// Serialize with update batches: the snapshot below must capture the
	// pages of one published state, not a commit in flight.
	s.updMu.Lock()
	defer s.updMu.Unlock()
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		if fi.Size() != 0 {
			return fmt.Errorf("core: %s is not empty", path)
		}
		mode = fi.Mode().Perm()
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	err = tmp.Chmod(mode)
	tmp.Close()
	if err != nil {
		return err
	}
	disk, err := storage.OpenFileDisk(tmp.Name(), s.pager.PageSize())
	if err != nil {
		return err
	}
	defer disk.Close()
	for _, p := range s.parts {
		if err := p.heap.Flush(); err != nil {
			return err
		}
	}
	if err := s.pager.SnapshotTo(disk); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	if err := writeCatalog(disk, s.encodeCatalog()); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
