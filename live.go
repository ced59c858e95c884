package fielddb

// Live updates and snapshot reads: the facade over internal/core's epoch-based
// MVCC update engine. UpdateSamples applies a batch of sample-value changes to
// the field, both stores, and the value index as one atomic step; Snapshot
// hands out pinned point-in-time views that keep answering at their epoch no
// matter how many batches commit afterwards. Readers never block on updaters
// and never see a torn field.

import (
	"context"
	"fmt"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/storage"
)

// Re-exported live-update types (internal/core).
type (
	// SampleUpdate assigns a new value to one field sample (a grid vertex or
	// TIN point).
	SampleUpdate = core.SampleUpdate
	// UpdateResult reports one committed update batch on a single store: the
	// new storage epoch, the work done (samples, cells, pages), and whether
	// the subfield partition was re-cut.
	UpdateResult = core.UpdateResult
)

// UpdateStats reports one UpdateSamples batch across both stores. The
// embedded UpdateResult is the value plane's (its IO is read activity on the
// value store, published to that store's totals); the Spatial fields account
// for the spatial store's record patch the same way, so callers can reconcile
// either store's totals against the sum of published per-operation stats.
type UpdateStats struct {
	UpdateResult
	// SpatialEpoch is the epoch the spatial store's patch committed.
	SpatialEpoch uint64
	// SpatialPagesWritten counts the spatial store's copy-on-write overlays.
	SpatialPagesWritten int
	// SpatialIO is the patch's read activity on the spatial store.
	SpatialIO storage.Stats
}

// UpdateSamples applies a batch of sample-value changes and commits it as one
// new storage epoch per store. The batch is atomic with respect to readers:
// every query — including ones already running — answers against either the
// pre-batch or the post-batch state, byte for byte, never a mixture, and no
// reader ever blocks on the update. The field itself, the value index's cell
// records and interval sidecar, the index structure (with a lazy re-cut of the
// subfield partition when the §3 cost bound drifts), and the spatial store's
// cell records are all brought to the new state.
//
// Updates require a mutable field (grid.DEM and tin.TIN qualify) and a
// supporting value index; IQuad returns ErrUpdatesUnsupported. Concurrent
// UpdateSamples calls serialize.
//
// On error before the value index commits, nothing changed. If the spatial
// store's patch fails after the value index committed (possible only with an
// injected fault or a canceled ctx), the returned *UpdateStats is non-nil
// alongside the error: the value plane moved to its new epoch but the spatial
// store kept its old records, and the error says so.
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
	out := &UpdateStats{UpdateResult: *res}
	spRes, spErr := db.spatial.ApplyUpdates(ctx, mf, updates)
	if spRes != nil {
		out.SpatialEpoch = spRes.Epoch
		out.SpatialPagesWritten = spRes.PagesWritten
		out.SpatialIO = spRes.IO
	}
	if spErr != nil {
		return out, fmt.Errorf("fielddb: spatial store update failed after value commit: %w", spErr)
	}
	// Both stores committed; snap the cache back to the field's exact range
	// (it may narrow when an update moved a sample off an extreme). The
	// index state was published before this store, so any reader that sees
	// the narrowed range also sees the post-batch field.
	vr := mf.ValueRange()
	db.vrange.Store(&vr)
	return out, nil
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
// through the handle answers against the storage epochs and index state that
// were current at acquisition, byte for byte, regardless of update batches
// committing in the meantime. Value queries read the value store's pinned
// epoch; point queries read the spatial store's (the R*-tree's geometry never
// changes under live updates, so pinning its heap pages pins the whole
// answer). Stats and ValueRange describe the pinned state too: an update
// batch may re-cut the partition or move the value range, and the snapshot's
// answers must keep describing what it pinned. Holding a
// snapshot keeps both epochs' page versions alive (delaying overlay
// compaction), so Close it when done. Its query methods are the embedded
// surface's (see Querier); they trace and meter exactly like live queries,
// and after Close — the snapshot's or its DB's — they return ErrClosed.
type Snapshot struct {
	surface
	spSnap *core.SpatialIndex
}

// Snapshot acquires a pinned point-in-time view of the value and spatial
// indexes.
func (db *DB) Snapshot() (*Snapshot, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	s := &Snapshot{spSnap: db.spatial.AcquireSnapshot()}
	s.index = db.index.AcquireSnapshot()
	s.owner = &db.closed
	s.point = s.spSnap
	s.ob = db.ob
	vr := db.ValueRange()
	s.vrange.Store(&vr)
	return s, nil
}

// Epoch returns the value store's storage epoch the snapshot reads.
func (s *Snapshot) Epoch() uint64 { return s.index.Epoch() }

// Close releases both epoch pins; queries through the snapshot afterwards
// return ErrClosed. Safe to call more than once.
func (s *Snapshot) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.index.Close()
		s.spSnap.Close()
	}
	return nil
}
