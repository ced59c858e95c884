package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// ErrUpdatesUnsupported is returned by ApplyUpdates when the index (or the
// file it was opened from) cannot apply live updates: I-Quad regrouping needs
// the spatial quadtree recursion the update path does not reproduce, and a
// file saved without an interval sidecar carries no position map to locate
// cell records.
var ErrUpdatesUnsupported = errors.New("core: index does not support live updates")

// SampleUpdate assigns a new value to one field sample (a grid vertex or TIN
// point). A batch of SampleUpdates is applied atomically: readers see either
// none of the batch or all of it, never a torn field.
type SampleUpdate struct {
	Sample int
	Value  float64
}

// UpdateResult reports one committed update batch.
type UpdateResult struct {
	// Epoch is the storage epoch the batch committed; queries begun after the
	// commit read it, snapshots acquired before keep their own.
	Epoch uint64
	// SamplesApplied and CellsTouched count the batch's samples and the
	// distinct cells incident to them.
	SamplesApplied int
	CellsTouched   int
	// PagesWritten counts the copy-on-write page overlays the batch committed
	// (heap cell pages plus sidecar pages); IndexPagesWritten counts the fresh
	// R*-tree pages persisted for the new snapshot (0 when no cell interval
	// changed).
	PagesWritten      int
	IndexPagesWritten int
	// EpochsRetired counts the overlay epochs the commit compacted away.
	EpochsRetired uint64
	// Regrouped reports whether the batch re-cut the subfield partition — the
	// §3 cost bound moved a group boundary — rather than just refreshing
	// group intervals in place.
	Regrouped bool
	// IO is the batch's read activity (staging reads of patched pages, index
	// hydration), published to the pager totals like any query's.
	IO storage.Stats
}

// sampleUndo remembers one overwritten sample for rollback.
type sampleUndo struct {
	sample int
	old    float64
}

// applySamples validates and applies the batch to the field, returning the
// undo log. On any error the already-applied prefix is rolled back.
func applySamples(f field.Mutable, updates []SampleUpdate) ([]sampleUndo, error) {
	undo := make([]sampleUndo, 0, len(updates))
	for _, u := range updates {
		if u.Sample < 0 || u.Sample >= f.NumSamples() {
			undoSamples(f, undo)
			return nil, fmt.Errorf("core: update sample %d out of %d", u.Sample, f.NumSamples())
		}
		if math.IsNaN(u.Value) || math.IsInf(u.Value, 0) {
			undoSamples(f, undo)
			return nil, fmt.Errorf("core: update sample %d: non-finite value", u.Sample)
		}
		old := f.SampleValue(u.Sample)
		if err := f.SetSample(u.Sample, u.Value); err != nil {
			undoSamples(f, undo)
			return nil, err
		}
		undo = append(undo, sampleUndo{sample: u.Sample, old: old})
	}
	return undo, nil
}

// undoSamples restores overwritten samples in reverse order, so duplicate
// samples in one batch unwind to their original value.
func undoSamples(f field.Mutable, undo []sampleUndo) {
	for i := len(undo) - 1; i >= 0; i-- {
		// Restoring a previously stored value cannot fail validation.
		_ = f.SetSample(undo[i].sample, undo[i].old)
	}
}

// affectedCells returns the sorted distinct cells incident to the batch's
// samples. Incidence is pure geometry, so the set is valid before or after
// the samples are applied.
func affectedCells(f field.Mutable, updates []SampleUpdate) []field.CellID {
	var cells []field.CellID
	for _, u := range updates {
		if u.Sample >= 0 && u.Sample < f.NumSamples() {
			cells = f.IncidentCells(u.Sample, cells)
		}
	}
	if len(cells) == 0 {
		return nil
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	out := cells[:1]
	for _, id := range cells[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// overlayStage accumulates the batch's copy-on-write page images. Pages are
// read through the update's query context — charged like any read — copied
// once, and patched in place; nothing touches the live pages until
// CommitOverlays installs the whole set at the next epoch.
type overlayStage struct {
	qc    *storage.QueryCtx
	pages map[storage.PageID][]byte
}

func newOverlayStage(qc *storage.QueryCtx) *overlayStage {
	return &overlayStage{qc: qc, pages: make(map[storage.PageID][]byte)}
}

// page returns the staged image of id, reading it on first use.
func (st *overlayStage) page(id storage.PageID) ([]byte, error) {
	if buf, ok := st.pages[id]; ok {
		return buf, nil
	}
	buf := make([]byte, st.qc.PageSize())
	if err := st.qc.ReadPage(id, buf); err != nil {
		return nil, err
	}
	st.pages[id] = buf
	return buf, nil
}

// patchCell re-encodes the cell from the (already mutated) field and patches
// its heap record — and, when a sidecar is present, its interval columns — in
// the staged images. It returns the cell's stored interval before and after
// the patch; the sidecar entry is written from the re-encoded record exactly
// the way the build wrote it, so the columns stay bit-identical to
// CellIntervalFromRecord of the stored record.
func (st *overlayStage) patchCell(f field.Field, id field.CellID, pos int,
	rids []storage.RID, sc *storage.IntervalSidecar, scratch *field.Cell, enc []byte,
) (oldIv, newIv geom.Interval, encOut []byte, err error) {
	rid := rids[pos]
	page, err := st.page(rid.Page)
	if err != nil {
		return oldIv, newIv, enc, err
	}
	rec, err := storage.RecordInPage(page, rid.Slot)
	if err != nil {
		return oldIv, newIv, enc, err
	}
	oldIv, err = field.CellIntervalFromRecord(rec)
	if err != nil {
		return oldIv, newIv, enc, err
	}
	f.Cell(id, scratch)
	if err = scratch.Validate(); err != nil {
		return oldIv, newIv, enc, fmt.Errorf("core: updated cell %d: %w", id, err)
	}
	enc = field.AppendCell(enc[:0], scratch)
	if err = storage.PatchRecordInPage(page, rid.Slot, enc); err != nil {
		return oldIv, newIv, enc, fmt.Errorf("core: cell %d: %w", id, err)
	}
	newIv, err = field.CellIntervalFromRecord(enc)
	if err != nil {
		return oldIv, newIv, enc, err
	}
	if sc != nil {
		spid, idx, err2 := sc.PageFor(pos)
		if err2 != nil {
			return oldIv, newIv, enc, err2
		}
		spage, err2 := st.page(spid)
		if err2 != nil {
			return oldIv, newIv, enc, err2
		}
		if err2 = sc.PatchEntry(spage, spid, idx, newIv.Lo, newIv.Hi); err2 != nil {
			return oldIv, newIv, enc, err2
		}
	}
	return oldIv, newIv, enc, nil
}

// recordUpdate folds a committed batch into the metrics registry and appends
// the batch counters to the trace (Lo = samples, Hi = distinct cells).
func (o *observed) recordUpdate(res *UpdateResult) {
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordUpdate(res.SamplesApplied, res.CellsTouched,
			int64(res.PagesWritten+res.IndexPagesWritten), int64(res.EpochsRetired), res.Regrouped)
	}
}

// changes is what one update batch did to one index's cells: the cells whose
// stored interval moved, in patch order, with their planar area (the slack a
// widened summary grows by), and the interval-column entries to put back if
// the batch fails.
type changes struct {
	cells    []field.CellID
	old, new []geom.Interval
	area     float64
	undo     []ivRestore
}

type ivRestore struct {
	pos int
	iv  geom.Interval
}

// patch re-encodes cell id from the (already mutated) field into the staged
// pages, keeps the interval column current and records an interval change in
// ch. It returns the cell's new interval and the reusable encode buffer.
func (ix *valueIndex) patch(stage *overlayStage, f field.Field, id field.CellID, ch *changes, scratch *field.Cell, enc []byte) (geom.Interval, []byte, error) {
	pos := int(id) // natural order: position == cell id
	if ix.order != nil {
		var ok bool
		if pos, ok = ix.posOf[id]; !ok {
			return geom.Interval{}, enc, fmt.Errorf("core: cell %d not in partition order", id)
		}
	}
	oldIv, newIv, enc, err := stage.patchCell(f, id, pos, ix.rids, ix.sidecar, scratch, enc)
	if err != nil {
		return newIv, enc, err
	}
	if ix.ivs != nil {
		ch.undo = append(ch.undo, ivRestore{pos, ix.ivs[pos]})
		ix.ivs[pos] = newIv
	}
	if oldIv != newIv {
		// scratch holds the re-encoded cell.
		ch.cells = append(ch.cells, id)
		ch.old = append(ch.old, oldIv)
		ch.new = append(ch.new, newIv)
		ch.area += scratch.Area()
	}
	return newIv, enc, nil
}

// restore puts the interval column back to its pre-batch contents, in reverse
// patch order so a cell patched twice unwinds to its original interval.
func (ix *valueIndex) restore(ch *changes) {
	for i := len(ch.undo) - 1; i >= 0; i-- {
		ix.ivs[ch.undo[i].pos] = ch.undo[i].iv
	}
}

// ApplyUpdates implements Engine — the one update skeleton: lock, patch the
// affected cell records and sidecar columns into copy-on-write page images,
// let the method maintain its index structure, commit the images as one new
// epoch, publish the new state. Every failure path puts the field's samples
// and the interval column back; the live epoch is untouched until the commit.
// I-Quad and files saved without a sidecar refuse with ErrUpdatesUnsupported.
func (e *executor) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	e.updMu.Lock()
	defer e.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(e.ob.Tracer, string(e.method), obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := e.applyUpdates(ctx, f, updates, cells, tb)
	tb.Finish(err)
	if err == nil {
		e.recordUpdate(res)
	}
	return res, err
}

func (e *executor) applyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	cur := e.snap.Load()
	if len(updates) == 0 {
		return &UpdateResult{Epoch: cur.epoch}, nil
	}
	qc := e.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	if err := e.ensureUpdateState(qc); err != nil {
		return nil, err
	}
	undo, err := applySamples(f, updates)
	if err != nil {
		return nil, err
	}
	var ch changes
	fail := func(err error) (*UpdateResult, error) {
		e.restore(&ch)
		undoSamples(f, undo)
		return nil, err
	}
	stage := newOverlayStage(qc)
	var scratch field.Cell
	var enc []byte
	qc.BeginSpan(obs.PhasePatch)
	for _, id := range cells {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if _, enc, err = e.patch(stage, f, id, &ch, &scratch, enc); err != nil {
			return fail(err)
		}
	}
	qc.EndSpan()
	next, indexPages, regrouped := &state{}, 0, false
	if e.maintain != nil {
		if next, indexPages, regrouped, err = e.maintain(stage, f, cur, &ch); err != nil {
			return fail(err)
		}
	}
	res := &UpdateResult{
		SamplesApplied:    len(updates),
		CellsTouched:      len(cells),
		PagesWritten:      len(stage.pages),
		IndexPagesWritten: indexPages,
		Regrouped:         regrouped,
		IO:                qc.Stats(),
	}
	// Persisting a maintained tree wrote one counted page per node outside
	// the query context; fold those writes into the published stats so the
	// pager totals stay the sum of all reported per-operation statistics.
	res.IO.Writes += indexPages
	epoch, retired, err := e.pager.CommitOverlays(stage.pages)
	if err != nil {
		return fail(err)
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	next.epoch = epoch
	e.snap.Store(next)
	return res, nil
}

// ensureUpdateState hydrates the update-path state of a partitioned index:
// the cell→position map and, for a file-opened index, the per-position
// interval column (recovered from the sidecar, whose entries are bit-identical
// to the stored records). Natural-order methods need neither.
func (ix *valueIndex) ensureUpdateState(qc *storage.QueryCtx) error {
	if ix.order == nil {
		return nil
	}
	if ix.posOf == nil {
		ix.posOf = make(map[field.CellID]int, len(ix.order))
		for pos, id := range ix.order {
			ix.posOf[id] = pos
		}
	}
	if ix.ivs != nil {
		return nil
	}
	if ix.sidecar == nil || ix.rids == nil {
		return fmt.Errorf("core: file has no interval sidecar: %w", ErrUpdatesUnsupported)
	}
	qc.BeginSpan(obs.PhaseMaintain)
	ivs := make([]geom.Interval, ix.cells)
	err := ix.sidecar.ScanRange(qc, 0, ix.cells, func(base int, lo, hi []float64) bool {
		for i := range lo {
			ivs[base+i] = geom.Interval{Lo: lo[i], Hi: hi[i]}
		}
		return true
	})
	if err != nil {
		return err
	}
	qc.EndSpan()
	ix.ivs = ivs
	return nil
}

// maintainGroups is the maintenance of the partitioned family. One span
// covers the regrouping (greedy re-cut, tree patch or rebuild) and the summary
// refit, so an update's trace accounts for the time and the page reads of
// both. An interval-changing batch moves the cumulative distributions the
// field summary approximates; the summary is refreshed in the same overlay
// set so summary and data version together under one epoch.
func (ix *valueIndex) maintainGroups(stage *overlayStage, _ field.Field, cur *state, ch *changes) (*state, int, bool, error) {
	stage.qc.BeginSpan(obs.PhaseMaintain)
	next, indexPages, regrouped, err := ix.regroup(stage.qc, cur, len(ch.cells) > 0)
	if err == nil && len(ch.cells) > 0 {
		err = ix.maintainSummary(stage, len(ch.cells), ch.area)
	}
	if err != nil {
		return nil, 0, false, err
	}
	stage.qc.EndSpan()
	return next, indexPages, regrouped, nil
}

// regroup re-derives the subfield partition with the build's own rule
// (§3.1.2's greedy cost bound for I-Hilbert, the fixed size threshold for
// I-Threshold) over the updated interval column and returns the next state's
// tree and groups: when the boundaries are unchanged, only the drifted groups'
// intervals and summaries are refreshed and the R*-tree is patched
// incrementally; when a boundary moved, the partition is re-cut and a fresh
// tree built — exactly the groups a rebuild from scratch on the mutated field
// would produce (the heap order is the geometric linearization, which updates
// never change). I-Quad regrouping needs the spatial quadtree recursion this
// does not reproduce. The caller holds updMu and an open PhaseMaintain span
// on qc; ix.ivs is current.
func (ix *valueIndex) regroup(qc *storage.QueryCtx, cur *state, changed bool) (*state, int, bool, error) {
	if ix.method == MethodIQuad {
		return nil, 0, false, fmt.Errorf("core: %s regrouping is spatial: %w", ix.method, ErrUpdatesUnsupported)
	}
	if !changed {
		return &state{tree: cur.tree, groups: cur.groups}, 0, false, nil
	}
	refs := make([]subfield.CellRef, ix.cells)
	for i := range refs {
		refs[i] = subfield.CellRef{ID: ix.order[i], Interval: ix.ivs[i]}
	}
	var next []subfield.Group
	switch ix.method {
	case MethodIThresh:
		next = subfield.BuildThreshold(refs, ix.cost, ix.maxSize)
	default:
		next = subfield.BuildGreedy(refs, ix.cost)
	}
	sameCut := len(next) == len(cur.groups)
	if sameCut {
		for i, g := range next {
			if g.Start != cur.groups[i].startRef || g.End != cur.groups[i].endRef {
				sameCut = false
				break
			}
		}
	}
	if sameCut {
		tree, groups, indexPages, err := ix.refreshGroups(qc, cur, next)
		return &state{tree: tree, groups: groups}, indexPages, false, err
	}
	tree, groups, indexPages, err := ix.recutGroups(next)
	return &state{tree: tree, groups: groups}, indexPages, true, err
}

// refreshGroups handles the boundary-stable case: group extents are
// unchanged, so only the groups whose interval or summary drifted are
// rebuilt, and the R*-tree is patched entry by entry on a hydrated copy.
func (ix *valueIndex) refreshGroups(qc *storage.QueryCtx, cur *state, next []subfield.Group) (*rstar.Tree, []groupMeta, int, error) {
	groups := make([]groupMeta, len(cur.groups))
	copy(groups, cur.groups)
	var work *rstar.Tree
	indexPages := 0
	for gi, g := range next {
		old := &groups[gi]
		avg := groupAvg(ix.ivs, g.Start, g.End)
		if g.Interval == old.interval && avg == old.avg {
			continue
		}
		if g.Interval != old.interval {
			if work == nil {
				var err error
				if work, err = cur.tree.Hydrate(qc); err != nil {
					return nil, nil, 0, err
				}
			}
			if !work.Delete(rstar.Entry{MBR: rstar.Interval1D(old.interval.Lo, old.interval.Hi), Data: uint64(gi)}) {
				return nil, nil, 0, fmt.Errorf("core: group %d interval %v not in index", gi, old.interval)
			}
			if err := work.Insert(rstar.Entry{MBR: rstar.Interval1D(g.Interval.Lo, g.Interval.Hi), Data: uint64(gi)}); err != nil {
				return nil, nil, 0, err
			}
		}
		old.interval = g.Interval
		old.avg = avg
	}
	tree := cur.tree
	if work != nil {
		if err := work.Persist(ix.pager); err != nil {
			return nil, nil, 0, err
		}
		tree = work
		indexPages = work.PersistedNodes()
	}
	return tree, groups, indexPages, nil
}

// recutGroups handles a moved boundary: all group metadata is recomputed from
// the new cut and a fresh tree is built by R* insertion, exactly as the
// original build constructs it.
func (ix *valueIndex) recutGroups(next []subfield.Group) (*rstar.Tree, []groupMeta, int, error) {
	groups := make([]groupMeta, len(next))
	tree, err := rstar.New(1, rstar.Params{PageSize: ix.pager.PageSize()})
	if err != nil {
		return nil, nil, 0, err
	}
	for gi, g := range next {
		first := ix.heap.PageIndex(ix.rids[g.Start].Page)
		last := ix.heap.PageIndex(ix.rids[g.End-1].Page)
		if first < 0 || last < 0 {
			return nil, nil, 0, fmt.Errorf("core: regrouped subfield %d pages not found", gi)
		}
		groups[gi] = groupMeta{
			interval: g.Interval, firstPage: first, lastPage: last,
			cells: g.Len(), startRef: g.Start, endRef: g.End,
			avg: groupAvg(ix.ivs, g.Start, g.End),
		}
		if err := tree.Insert(rstar.Entry{MBR: rstar.Interval1D(g.Interval.Lo, g.Interval.Hi), Data: uint64(gi)}); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := tree.Persist(ix.pager); err != nil {
		return nil, nil, 0, err
	}
	return tree, groups, tree.PersistedNodes(), nil
}

// groupAvg is the paper's per-subfield summary: the mean of the member
// cells' interval midpoints, folded in position order exactly as the build
// computes it.
func groupAvg(ivs []geom.Interval, start, end int) float64 {
	sum := 0.0
	for i := start; i < end; i++ {
		sum += (ivs[i].Lo + ivs[i].Hi) / 2
	}
	return sum / float64(end-start)
}

// ApplyUpdates re-encodes the affected cells of the spatial (conventional
// query) store. The samples are already applied by the value index's
// ApplyUpdates — the facade calls that first — so this patches records only:
// cell geometry never changes, the 2-D R*-tree needs no maintenance, and the
// batch commits as one epoch on the spatial store's own pager.
func (s *SpatialIndex) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(s.ob.Tracer, spatialMethod, obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := s.applyUpdates(ctx, f, cells, tb)
	tb.Finish(err)
	if err == nil {
		res.SamplesApplied = len(updates)
		s.recordUpdate(res)
	}
	return res, err
}

func (s *SpatialIndex) applyUpdates(ctx context.Context, f field.Mutable, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	if len(cells) == 0 {
		return &UpdateResult{Epoch: s.pager.CurrentEpoch()}, nil
	}
	qc := s.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	st := newOverlayStage(qc)
	var scratch field.Cell
	var enc []byte
	var err error
	qc.BeginSpan(obs.PhasePatch)
	for _, id := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The spatial store writes cells in natural order without a sidecar.
		if _, _, enc, err = st.patchCell(f, id, int(id), s.rids, nil, &scratch, enc); err != nil {
			return nil, err
		}
	}
	qc.EndSpan()
	res := &UpdateResult{
		CellsTouched: len(cells),
		PagesWritten: len(st.pages),
		IO:           qc.Stats(),
	}
	epoch, retired, err := s.pager.CommitOverlays(st.pages)
	if err != nil {
		return nil, err
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	return res, nil
}
