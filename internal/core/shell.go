package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// This file is the shell around the hooks: what an untiled index and the
// tiled planner do the same way whatever they index — hold a pager and the
// state current on it, pin that state for a reader, fan work out over forked
// query contexts, fetch single cells for the spatial access path, and write
// themselves to a file. The other shared piece, the update transaction, is in
// update.go.

// shell is what every store owns besides its index structure.
type shell struct {
	// label names the store in traces and metrics: the method, or
	// "Tiled-<method>" for the planner, whose tiles are tileSide cells a side
	// (0 when untiled) and each run method.
	label    string
	method   Method
	tileSide int
	pager    *storage.Pager
	// parts are the store's partitions: one for an untiled index, one per tile
	// under the planner.
	parts []*partition
	// snap is the current MVCC state. Readers load it once, pin its epoch and
	// run entirely against it; an update batch publishes a fresh state only
	// after committing its page overlays, so no reader ever observes a
	// half-updated index. updMu serializes updaters (and SaveFile against
	// them); readers never take it.
	snap  atomic.Pointer[state]
	updMu sync.Mutex
	// workers bounds the goroutines a scatter fans out on; 0 or 1 keeps a
	// query single-threaded.
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

// state is one epoch's immutable view of an index structure, each part nil
// where the store has none. A state is never mutated after snap.Store
// publishes it; updates build a whole new one.
type state struct {
	epoch  uint64
	tree   *rstar.Tree // per cell (I-All) or per subfield
	groups []groupMeta // subfields, in partition order
	hist   *autoHist   // the planner's selectivity histogram
	// vr is the value range of each of the store's partitions: every cell
	// interval of the partition lies inside it. It is the store's ValueRange,
	// the tiled planner's prune test, and only ever widens under updates.
	vr []geom.Interval
	// parts are the tiled planner's per-tile index states valid at this epoch;
	// an untiled store's state is its one partition's.
	parts []*state
}

// part returns the index state of the store's i-th partition.
func (st *state) part(i int) *state {
	if st.parts == nil {
		return st
	}
	return st.parts[i]
}

// pinned is a handle on a store: live at whatever state is current, or — as
// a snapshot — at the state it pinned. Every operation is written once against
// a pinned state, so a snapshot needs no code of its own.
type pinned struct {
	live *shell
	pin  *state
	once sync.Once // guards a snapshot's unpin
}

// cur returns the state operations run against.
func (p *pinned) cur() *state {
	if p.pin != nil {
		return p.pin
	}
	return p.live.snap.Load()
}

// pinState pins the epoch of the state to run against, retrying across the
// narrow window where an update batch has committed a new epoch (retiring the
// loaded one) but not yet published its state. Every pinState is paired with
// one unpin; while the pin is held, beginQueryAt at the state's epoch cannot
// fail.
func (p *pinned) pinState() *state {
	for {
		s := p.cur()
		if p.live.pager.PinEpoch(s.epoch) {
			return s
		}
		if p.pin != nil {
			panic("core: snapshot used after Close")
		}
		runtime.Gosched()
	}
}

func (p *pinned) unpin(s *state) { p.live.pager.UnpinEpoch(s.epoch) }

// snapshot pins the state current now and returns the handle that holds it.
func (p *pinned) snapshot() pinned { return pinned{live: p.live, pin: p.pinState()} }

// Epoch returns the storage epoch queries read: the current one, or a
// snapshot's pinned one.
func (p *pinned) Epoch() uint64 { return p.cur().epoch }

// ValueRange returns the union of the partitions' value ranges — the field's
// full value range, kept a superset across live updates. It lets a stored
// index serve open-ended value queries (ValueAbove/ValueBelow) without the
// original field.
func (p *pinned) ValueRange() geom.Interval {
	vr := geom.EmptyInterval()
	for _, iv := range p.cur().vr {
		vr = vr.Union(iv)
	}
	return vr
}

// Close releases a snapshot's pin (idempotently); on the live handle it
// releases the underlying store — the database file of an opened index, a
// no-op for in-memory builds.
func (p *pinned) Close() error {
	if p.pin == nil {
		return p.live.pager.Close()
	}
	p.once.Do(func() { p.unpin(p.pin) })
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

// fetchCells is Engine.FetchCells over the store's partitions, which u routes
// each cell to: one query context at the pinned state reads every record, in
// the order given, under one decode span on tb, until visit declines the next.
// The records are decoded out of the page view, so a cell arrives under the id
// its partition stores it by. The returned Stats are published — on an error
// too, like any query's partial activity.
func (p *pinned) fetchCells(ctx context.Context, u updater, tb *obs.TraceBuilder, ids []uint64, visit func(*field.Cell) bool) (storage.Stats, error) {
	st := p.pinState()
	defer p.unpin(st)
	qc := beginQueryAt(p.live.pager, st.epoch)
	qc.AttachTrace(tb)
	qc.BeginSpan(obs.PhaseDecode)
	var c field.Cell
	for _, id := range ids {
		err := ctx.Err()
		if err == nil {
			err = p.live.decodeCell(qc, u, field.CellID(id), &c)
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
func (sh *shell) decodeCell(qc *storage.QueryCtx, u updater, id field.CellID, c *field.Cell) error {
	part, local, err := u.route(id)
	if err != nil {
		return err
	}
	pos, err := sh.parts[part].position(local)
	if err != nil {
		return err
	}
	rid := sh.parts[part].rids[pos]
	f, err := qc.ViewPage(rid.Page)
	if err != nil {
		return err
	}
	defer f.Release()
	rec, err := storage.RecordInPage(f.Data(), rid.Slot)
	if err != nil {
		return err
	}
	return field.DecodeCell(rec, c)
}

// SetWorkers bounds the worker pool a query scatters on: whole page runs for
// an untiled index, whole residual tiles for the planner. One item is one
// sequential-I/O unit, so the answer and the per-query accounting are
// identical to the single-threaded run. Call before issuing queries; it is not
// synchronized with queries in flight.
func (sh *shell) SetWorkers(n int) { sh.workers = clampWorkers(n) }

// SetObserver installs the trace/metrics sinks. Call before issuing queries.
func (sh *shell) SetObserver(ob obs.Observer) { sh.setObs(ob, sh.label) }

// Method returns the name the store reports: the method, or "Tiled-<inner>".
func (sh *shell) Method() Method { return Method(sh.label) }

// fanout returns how many workers n independent items scatter on; 1 means
// the caller runs them in order on its own context — no goroutine, no fork,
// nothing allocated.
func (sh *shell) fanout(n int) int {
	if w := clampWorkers(sh.workers); w > 1 && n > 1 {
		return w
	}
	return 1
}

// scatter runs scan(i, child) for every item in [0, n) on a pool of workers,
// each item on its own fork of qc, and merges the forks back into qc strictly
// in item order — so qc ends up charged exactly as if the items had run on it
// one after another. Whatever scan produces it must file under i; the caller
// folds the pieces in item order afterwards. Per-item busy time is measured
// only when a metrics registry is installed, keeping the unobserved path
// timing-free.
func (sh *shell) scatter(ctx context.Context, qc *storage.QueryCtx, workers, n int, scan func(i int, child *storage.QueryCtx) error) error {
	timed := sh.ob.Metrics != nil
	var wallStart time.Time
	var busy atomic.Int64
	if timed {
		wallStart = time.Now()
	}
	forks := make([]*storage.QueryCtx, n)
	err := parallelDoCtx(ctx, workers, n, func(i int) error {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		child := qc.Fork()
		if err := scan(i, child); err != nil {
			return err
		}
		forks[i] = child
		if timed {
			busy.Add(int64(time.Since(t0)))
		}
		return nil
	})
	if timed {
		sh.ob.Metrics.RecordWorkers(n, time.Duration(busy.Load()), time.Since(wallStart))
	}
	if err != nil {
		return err
	}
	for _, child := range forks {
		qc.Merge(child)
	}
	return nil
}

// SaveFile implements Engine: it writes the store — every page of its pager,
// then the catalog — to a database file Open reopens. Every configuration
// saves but the selectivity planner, whose histogram is derived from the field
// and lives on no page. The file is written under a temporary name in path's
// directory and renamed over path once complete, so a save that fails leaves
// path as it found it: absent, or the caller's empty file. A file that already
// holds anything is refused untouched.
func (sh *shell) SaveFile(path string) (err error) {
	if methods[sh.method].plans {
		return fmt.Errorf("%w: method %s has no on-disk format", ErrNoPartition, sh.label)
	}
	// Serialize with update batches: the snapshot below must capture the
	// pages of one published state, not a commit in flight.
	sh.updMu.Lock()
	defer sh.updMu.Unlock()
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
	disk, err := storage.OpenFileDisk(tmp.Name(), sh.pager.PageSize())
	if err != nil {
		return err
	}
	defer disk.Close()
	for _, p := range sh.parts {
		if err := p.heap.Flush(); err != nil {
			return err
		}
	}
	if err := sh.pager.SnapshotTo(disk); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	if err := writeCatalog(disk, sh.encodeCatalog()); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
