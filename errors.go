package fielddb

import (
	"errors"

	"fielddb/internal/core"
)

// Typed sentinel errors of the facade. Returned errors wrap these (often with
// the offending values appended), so callers branch with errors.Is instead of
// matching message strings:
//
//	if errors.Is(err, fielddb.ErrInvertedInterval) { ... }
var (
	// ErrInvertedInterval reports a value interval with hi < lo. Every query
	// path validates its interval against it before touching an index.
	ErrInvertedInterval = errors.New("fielddb: inverted interval")
	// ErrClosed reports a query or save against a DB, StoredIndex or Snapshot
	// after Close.
	ErrClosed = errors.New("fielddb: database is closed")
	// ErrBadConjunction reports an And call whose arguments cannot form a
	// conjunctive query: no conditions, mismatched slice lengths, or a nil
	// *DB element.
	ErrBadConjunction = errors.New("fielddb: invalid conjunctive query")
	// ErrNonFiniteBound reports a NaN or ±Inf query value — an interval end,
	// an open bound (ValueAbove/ValueBelow), a contour level, or a point
	// coordinate. Every Querier surface rejects non-finite inputs before
	// touching an index; the serving tier maps this error to HTTP 400.
	ErrNonFiniteBound = errors.New("fielddb: non-finite query value")
	// ErrBadTolerance reports an unusable aggregate error tolerance: a NaN or
	// negative maxErr argument to ApproxAggregateContext. Zero is not an error
	// — it means DefaultApproxMaxErr; +Inf is valid and accepts any certified
	// bound.
	ErrBadTolerance = errors.New("fielddb: invalid error tolerance")
	// ErrUpdatesUnsupported reports UpdateSamples on a DB over an immutable
	// field. Every method takes updates; a field takes them when its samples
	// can be set, as those of grid.DEM and tin.TIN can.
	ErrUpdatesUnsupported = errors.New("fielddb: field does not support live updates")
)

// Errors re-exported from internal/core, so errors.Is works across the
// facade boundary.
var (
	// ErrUnknownMethod reports an Options.Method outside the method table.
	ErrUnknownMethod = core.ErrUnknownMethod
	// ErrBadTiling reports an Options combination the builder refuses:
	// TileSide with IAll, TileSide 1, or a SidecarCodec not LinearScan's.
	ErrBadTiling = core.ErrBadOptions
	// ErrNoPartition reports subfield summaries (ApproxValueQueryContext) asked
	// of a configuration that forms no subfields.
	ErrNoPartition = core.ErrNoPartition
	// ErrOutsideField reports a point query at a point no cell of the field
	// holds, or an UpdateSamples batch naming a sample the field does not have.
	ErrOutsideField = core.ErrOutsideField
	// ErrUnsupportedVersion reports OpenIndex on a database file whose
	// superblock or catalog names a catalog version other than the one this
	// build reads and writes.
	ErrUnsupportedVersion = core.ErrUnsupportedVersion
)
