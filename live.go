package fielddb

// Live updates and snapshot reads: the facade over internal/core's epoch-based
// MVCC update engine. UpdateSamples applies a batch of sample-value changes to
// the field, the cell store and the value index as one atomic step; Snapshot
// hands out pinned point-in-time views that keep answering at their epoch no
// matter how many batches commit afterwards. Readers never block on updaters
// and never see a torn field.

import (
	"context"
	"fmt"

	"fielddb/internal/core"
	"fielddb/internal/field"
)

// Re-exported live-update types (internal/core).
type (
	// SampleUpdate assigns a new value to one field sample (a grid vertex or
	// TIN point).
	SampleUpdate = core.SampleUpdate
	// UpdateResult reports one committed update batch: the new storage epoch,
	// the work done (samples, cells, pages), and whether the subfield
	// partition was re-cut.
	UpdateResult = core.UpdateResult
)

// UpdateStats reports one UpdateSamples batch. The embedded UpdateResult is
// the whole of it — its IO is the batch's read activity on the value store,
// published to that store's totals.
type UpdateStats struct {
	UpdateResult
	// SpatialPagesWritten is always 0: the cells are stored once, so there is
	// no spatial copy to patch. The field stays until the benchmark that sums
	// it is next revised (see ROADMAP.md).
	SpatialPagesWritten int
}

// UpdateSamples applies a batch of sample-value changes and commits it as one
// new storage epoch. The batch is atomic with respect to readers: every query
// — value and point alike, including ones already running — answers against
// either the pre-batch or the post-batch state, byte for byte, never a
// mixture, and no reader ever blocks on the update. The field itself, the cell
// records (LinearScan's sidecar too), and the index structure (with a lazy
// re-cut of the subfield partition when the §3 cost bound drifts) are all
// brought to the new state; the point locator — a DEM's lattice, a TIN's
// cell buckets — finds cells by geometry, which updates never change, and
// reads the same records: it has nothing to bring.
//
// Updates require a mutable field (grid.DEM and tin.TIN qualify); an
// immutable one is refused with ErrUpdatesUnsupported. Concurrent
// UpdateSamples calls serialize.
//
// On error nothing changed: the field's samples are rolled back and the live
// epoch is untouched.
func (db *DB) UpdateSamples(ctx context.Context, updates []SampleUpdate) (*UpdateStats, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	if len(updates) == 0 {
		return nil, fmt.Errorf("fielddb: empty update batch")
	}
	mf, ok := db.field.(field.Mutable)
	if !ok {
		return nil, fmt.Errorf("%w: field %T is immutable", ErrUpdatesUnsupported, db.field)
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	// Widen the cached value range with the batch's values before anything
	// commits: ValueAbove/ValueBelow read the cache without locking, and a
	// conservatively wide range only pads their query interval, while a
	// stale-narrow one could miss a new extreme mid-batch.
	db.widenRange(updates)
	res, err := db.index.ApplyUpdates(ctx, mf, updates)
	if err != nil {
		return nil, err
	}
	// The batch committed; snap the cache back to the field's exact range (it
	// may narrow when an update moved a sample off an extreme). The index
	// state was published before this store, so any reader that sees the
	// narrowed range also sees the post-batch field.
	vr := mf.ValueRange()
	db.vrange.Store(&vr)
	return &UpdateStats{UpdateResult: *res}, nil
}

// widenRange grows the cached value range to cover every value in the batch.
// Callers hold updateMu.
func (db *DB) widenRange(updates []SampleUpdate) {
	cur := db.vrange.Load()
	wide := *cur
	for _, u := range updates {
		if u.Value < wide.Lo {
			wide.Lo = u.Value
		}
		if u.Value > wide.Hi {
			wide.Hi = u.Value
		}
	}
	if wide != *cur {
		db.vrange.Store(&wide)
	}
}

// Snapshot is a pinned point-in-time view of the database: every query
// through the handle answers against the storage epoch and index state that
// were current at acquisition, byte for byte, regardless of update batches
// committing in the meantime. Value and point queries read the same pin: a
// point query's cell comes from the value store at the pinned epoch (the
// locator's geometry never changes under live updates, so pinning the cell
// pages pins the whole answer; the snapshot shares its DB's locator). Stats
// and ValueRange describe the pinned state too: an update batch may re-cut
// the partition or move the value range, and the snapshot's answers must keep
// describing what it pinned. Holding a snapshot keeps the epoch's page
// versions alive (delaying overlay compaction), so Close it when done. Its query methods are the embedded
// surface's (see Querier); they trace and meter exactly like live queries,
// and after Close — the snapshot's or its DB's — they return ErrClosed.
type Snapshot struct {
	surface
}

// Snapshot acquires a pinned point-in-time view of the database.
func (db *DB) Snapshot() (*Snapshot, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	s := &Snapshot{}
	s.index = db.index.AcquireSnapshot()
	s.owner = &db.closed
	s.spatial = db.spatial
	s.ob = db.ob
	vr := db.ValueRange()
	s.vrange.Store(&vr)
	return s, nil
}

// Epoch returns the storage epoch the snapshot reads.
func (s *Snapshot) Epoch() uint64 { return s.index.Epoch() }

// Close releases the epoch pin; queries through the snapshot afterwards
// return ErrClosed. Safe to call more than once.
func (s *Snapshot) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.index.Close()
	}
	return nil
}
