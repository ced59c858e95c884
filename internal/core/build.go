package core

import (
	"context"
	"errors"
	"fmt"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// Build's refusals. The facade re-exports both, and they carry its prefix:
// they are the errors of fielddb.Open's Options.
var (
	// ErrUnknownMethod reports a BuildOptions.Method outside the method table.
	ErrUnknownMethod = errors.New("fielddb: unknown method")
	// ErrBadOptions reports options the builder cannot combine: a TileSide
	// below 2, a tiled I-All, a sidecar option on a method with a tree, or an
	// unknown sidecar codec.
	ErrBadOptions = errors.New("fielddb: invalid tiling options")
)

// BuildOptions is everything Build can be told.
type BuildOptions struct {
	// Method selects the value index.
	Method Method
	// TileSide, when non-zero, cuts the field into TileSide×TileSide-cell
	// tiles (at least 2), each a partition of its own that the scatter-gather
	// pipeline of tiled.go prunes or scans. LinearScan and I-Hilbert tile;
	// a per-cell tree per tile has no pruning story.
	TileSide int
	// Workers bounds the goroutines used for construction (linearization,
	// per-subfield metadata) and is inherited as the bound of a query's
	// scatter over the idle cores (see fanout). 0 or 1 means single-threaded;
	// the facade's default resolves to GOMAXPROCS before it gets here.
	Workers int
	// Codec selects the interval sidecar's page codec (storage.SidecarCodecRaw
	// or storage.SidecarCodecPacked; empty selects raw); NoSidecar skips it, and
	// the scan reads the full cell heap the way the paper's §2.2.2 baseline does
	// — the identity tests' reference. Both are LinearScan's, the one method
	// whose filter tests every cell interval: a method with a tree refuses them.
	Codec     string
	NoSidecar bool
	// BulkLoad packs I-All's R*-tree bottom-up (sorted by interval center)
	// instead of inserting one interval at a time. Tuple-by-tuple insertion
	// reproduces the tall, overlapping tree the paper describes; bulk loading
	// is for suites that measure the query path only.
	BulkLoad bool
}

// hilbert linearizes cells by the Hilbert value of their centers on a
// 2^16 × 2^16 grid over the field's bounds: the heap order of the partitioned
// methods. NewHilbert refuses only an order out of [1, 32] or a curve that is
// not 2-D, which these constants are not.
var hilbert, _ = sfc.NewHilbert(16, 2)

// methodSpec is one row of the method table: everything in which one method
// differs from another. Build and Open dispatch on it and on nothing else.
type methodSpec struct {
	// cut stores the cells in Hilbert order, cut into subfields by §3.1.2's
	// greedy cost bound; without it the cells are stored in natural order
	// with no partition.
	cut bool
	// perCell indexes every cell interval in the tree (§3's baseline). Such a
	// method does not tile: a per-cell tree per tile has no pruning story.
	perCell bool
	// bind installs the method's candidates and maintain hooks on a built or
	// opened partition.
	bind func(p *partition)
}

// hasTree reports whether the method keeps an R*-tree per partition; its
// entries are heap positions when perCell, subfields otherwise.
func (m *methodSpec) hasTree() bool { return m.cut || m.perCell }

// methods is the method table.
var methods = map[Method]*methodSpec{
	// The no-index baseline and the one method with an interval sidecar: with
	// it (the default) the filter is one pass over the sidecar pages and only
	// the pages holding matching cells are read from the heap; without it
	// every cell page is scanned.
	MethodLinearScan: {bind: func(p *partition) {
		p.candidates = p.heapCandidates
		if p.sidecar != nil {
			p.candidates, p.byPos, p.tested = p.sidecarCandidates, true, true
		}
	}},
	// §3's straightforward baseline: one tree entry per cell. The tree is
	// large and its similar, heavily overlapping intervals make the filter
	// step expensive — slower than LinearScan at high selectivity (Figure
	// 11.a).
	MethodIAll: {perCell: true, bind: func(p *partition) {
		p.candidates, p.maintain, p.byPos = p.cellCandidates, p.maintainCells, true
	}},
	// The paper's method: cells stored in partition order (each subfield a
	// contiguous run of pages), subfield intervals in a 1-D R*-tree.
	MethodIHilbert: {cut: true, bind: func(p *partition) {
		p.candidates, p.maintain = p.groupCandidates, p.regroup
	}},
}

// Build stores the cells of f on pager and builds the value index opts
// describes over them: the one way in for every method, tiled or not. ctx
// cancels construction between tiles, between cell-write batches and between
// per-subfield metadata work units.
func Build(ctx context.Context, f field.Field, pager *storage.Pager, opts BuildOptions) (Engine, error) {
	m, ok := methods[opts.Method]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, opts.Method)
	}
	switch {
	case m.hasTree() && (opts.Codec != "" || opts.NoSidecar):
		return nil, fmt.Errorf("%w: method %s has no interval sidecar", ErrBadOptions, opts.Method)
	case m.hasTree(), opts.NoSidecar:
		opts.Codec = ""
	case opts.Codec == "":
		opts.Codec = storage.SidecarCodecRaw
	case !storage.ValidSidecarCodec(opts.Codec):
		return nil, fmt.Errorf("%w: unknown sidecar codec %q", ErrBadOptions, opts.Codec)
	}
	if opts.TileSide != 0 && opts.TileSide < 2 {
		return nil, fmt.Errorf("%w: tile side %d (need at least 2)", ErrBadOptions, opts.TileSide)
	}
	if opts.TileSide != 0 && m.perCell {
		return nil, fmt.Errorf("%w: method %s does not tile", ErrBadOptions, opts.Method)
	}
	opts.Workers = clampWorkers(opts.Workers)
	s := newStore(pager, opts.Method, opts.TileSide, f.NumCells())
	s.workers = opts.Workers
	var err error
	if s.finder, err = finderOf(f); err != nil {
		return nil, err
	}
	st := &state{}
	// ivs and areas are what the field summary is fitted to: every cell's
	// interval and planar area (no ivs, no summary).
	build := buildWhole
	if opts.TileSide != 0 {
		build = buildTiles
	}
	ivs, areas, err := build(ctx, f, s, st, m, &opts)
	if err != nil {
		return nil, err
	}
	if ivs != nil {
		// The field summary lives on its own page run right after the index
		// pages, so an approximate aggregate touches a handful of dedicated
		// pages and nothing else.
		if s.sumFirst, s.sumPages, err = buildSummary(pager, ivs, areas); err != nil {
			return nil, err
		}
	}
	st.epoch = pager.CurrentEpoch()
	return s.publish(st), nil
}

// buildWhole builds row m's partition over all of f — an untiled store's one —
// adding it to s and its first state to st. Only a cut partition keeps
// the interval column a field summary is fitted to: for one it returns the
// column with every cell's area, which the store keeps to refit the summary
// under updates.
func buildWhole(ctx context.Context, f field.Field, s *store, st *state, m *methodSpec, opts *BuildOptions) ([]geom.Interval, []float64, error) {
	p, pst, areas, err := buildPartition(ctx, f, s.pager, m, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range areas {
		p.area += a
	}
	s.add(p)
	st.vr, st.parts = []geom.Interval{f.ValueRange()}, []*partState{pst}
	if p.ivs != nil {
		s.areas = areas
	}
	return p.ivs, areas, nil
}

// buildPartition stores the cells of f — a whole field, or one tile of one —
// in a fresh heap segment on pager, in the order row m's cut puts them, and
// builds the row's index structure over them. It returns the partition with
// its hooks bound, its first state, and each cell's planar area in heap order.
func buildPartition(ctx context.Context, f field.Field, pager *storage.Pager, m *methodSpec, opts *BuildOptions) (*partition, *partState, []float64, error) {
	p := &partition{cells: f.NumCells(), mbr: f.Bounds()}
	st := &partState{}
	ids := make([]field.CellID, f.NumCells()) // the heap order: natural, unless the cut reorders it
	for i := range ids {
		ids[i] = field.CellID(i)
	}
	var groups []subfield.Group
	if m.cut {
		refs, err := subfield.LinearizeWorkers(f, hilbert, opts.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		groups = subfield.BuildGreedy(refs, subfield.DefaultCostModel)
		if err := subfield.Validate(refs, groups); err != nil {
			return nil, nil, nil, fmt.Errorf("core: %w", err)
		}
		p.ivs = make([]geom.Interval, len(refs))
		p.posOf = make([]int32, len(refs))
		for i, r := range refs {
			ids[i], p.ivs[i], p.posOf[r.ID] = r.ID, r.Interval, int32(i)
		}
		p.order = ids
	}
	var areas []float64
	var err error
	if p.heap, p.sidecar, areas, err = writeCells(ctx, f, pager, ids, opts.Codec); err != nil {
		return nil, nil, nil, err
	}
	switch {
	case m.cut:
		st.tree, st.groups, err = p.indexGroups(ctx, pager, groups, opts.Workers)
	case m.perCell:
		st.tree, err = indexCells(f, pager, opts.BulkLoad)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	m.bind(p)
	return p, st, areas, nil
}

// indexGroups computes the subfield metadata of a freshly written partition
// and indexes the subfield intervals. ctx cancels between per-subfield work
// units. Only a build calls it: an update batch patches the tree it has
// (regroup).
func (p *partition) indexGroups(ctx context.Context, pager *storage.Pager, groups []subfield.Group, workers int) (*rstar.Tree, []groupMeta, error) {
	// Per-subfield metadata (page run, summary average) is independent
	// across groups, so construction fans out on the worker pool.
	metas := make([]groupMeta, len(groups))
	err := parallelDo(ctx, workers, len(groups), func(_, gi int) error {
		var err error
		metas[gi], err = p.groupMetaOf(groups[gi])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Subfield intervals are few; the tree is built by R* insertion, as in
	// the paper.
	tree, err := rstar.New(rstar.Params{PageSize: pager.PageSize()})
	if err != nil {
		return nil, nil, err
	}
	for gi, g := range metas {
		if err := tree.Insert(groupEntry(gi, g.interval)); err != nil {
			return nil, nil, err
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, nil, err
	}
	return tree, metas, nil
}

// indexCells builds I-All's tree: one entry per cell interval of f, persisted
// on pager.
func indexCells(f field.Field, pager *storage.Pager, bulk bool) (*rstar.Tree, error) {
	n := f.NumCells()
	params := rstar.Params{PageSize: pager.PageSize()}
	entries := make([]rstar.Entry, n)
	var c field.Cell
	for id := range entries {
		iv := f.Cell(field.CellID(id), &c).Interval()
		entries[id] = rstar.Entry{MBR: rstar.Interval1D(iv.Lo, iv.Hi), Data: uint64(id)}
	}
	var tree *rstar.Tree
	var err error
	if bulk {
		if tree, err = rstar.BulkLoad(1, params, entries, nil, 1.0); err != nil {
			return nil, fmt.Errorf("core: I-All bulk load: %w", err)
		}
	} else {
		if tree, err = rstar.New(params); err != nil {
			return nil, fmt.Errorf("core: I-All tree: %w", err)
		}
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				return nil, err
			}
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	return tree, nil
}
