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

// Updater is implemented by value indexes that support live sample updates.
// ApplyUpdates mutates f, patches the stored cell records and interval
// sidecar through copy-on-write page overlays, maintains the index structure,
// and commits the batch as one new storage epoch. Concurrent readers are
// never blocked and never see a partial batch; on error the field is rolled
// back and the live epoch is untouched.
type Updater interface {
	ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error)
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

// ApplyUpdates implements Updater for the no-index baseline: patch the cell
// records and sidecar columns, commit — there is no derived structure to
// maintain.
func (ls *LinearScan) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	ls.updMu.Lock()
	defer ls.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(ls.ob.Tracer, string(MethodLinearScan), obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := ls.applyUpdates(ctx, f, updates, cells, tb)
	tb.Finish(err)
	if err == nil {
		ls.recordUpdate(res)
	}
	return res, err
}

func (ls *LinearScan) applyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	if len(updates) == 0 {
		return &UpdateResult{Epoch: ls.pager.CurrentEpoch()}, nil
	}
	undo, err := applySamples(f, updates)
	if err != nil {
		return nil, err
	}
	qc := ls.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	st := newOverlayStage(qc)
	var scratch field.Cell
	var enc []byte
	qc.BeginSpan(obs.PhasePatch)
	for _, id := range cells {
		if err := ctx.Err(); err != nil {
			undoSamples(f, undo)
			return nil, err
		}
		// LinearScan stores cells in natural order: position == cell id.
		if _, _, enc, err = st.patchCell(f, id, int(id), ls.rids, ls.sidecar, &scratch, enc); err != nil {
			undoSamples(f, undo)
			return nil, err
		}
	}
	qc.EndSpan()
	res := &UpdateResult{
		SamplesApplied: len(updates),
		CellsTouched:   len(cells),
		PagesWritten:   len(st.pages),
		IO:             qc.Stats(),
	}
	epoch, retired, err := ls.pager.CommitOverlays(st.pages)
	if err != nil {
		undoSamples(f, undo)
		return nil, err
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	return res, nil
}

// ApplyUpdates implements Updater for I-All: patch the cell records, then
// delete/insert the changed cell intervals in a hydrated copy of the R*-tree,
// persist it to fresh pages, and publish tree and epoch together.
func (ia *IAll) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	ia.updMu.Lock()
	defer ia.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(ia.ob.Tracer, string(MethodIAll), obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := ia.applyUpdates(ctx, f, updates, cells, tb)
	tb.Finish(err)
	if err == nil {
		ia.recordUpdate(res)
	}
	return res, err
}

func (ia *IAll) applyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	cur := ia.snap.Load()
	if len(updates) == 0 {
		return &UpdateResult{Epoch: cur.epoch}, nil
	}
	undo, err := applySamples(f, updates)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*UpdateResult, error) {
		undoSamples(f, undo)
		return nil, err
	}
	qc := ia.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	st := newOverlayStage(qc)
	oldIvs := make([]geom.Interval, len(cells))
	newIvs := make([]geom.Interval, len(cells))
	var scratch field.Cell
	var enc []byte
	qc.BeginSpan(obs.PhasePatch)
	for i, id := range cells {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		// I-All stores cells in natural order: position == cell id.
		if oldIvs[i], newIvs[i], enc, err = st.patchCell(f, id, int(id), ia.rids, ia.sidecar, &scratch, enc); err != nil {
			return fail(err)
		}
	}
	qc.EndSpan()
	tree, indexPages, err := maintainIAllTree(qc, cur.tree, ia.pager, cells, oldIvs, newIvs)
	if err != nil {
		return fail(err)
	}
	res := &UpdateResult{
		SamplesApplied:    len(updates),
		CellsTouched:      len(cells),
		PagesWritten:      len(st.pages),
		IndexPagesWritten: indexPages,
		IO:                qc.Stats(),
	}
	// Persisting the maintained tree wrote one counted page per node outside
	// the query context; fold those writes into the published stats so the
	// pager totals stay the sum of all reported per-operation statistics.
	res.IO.Writes += indexPages
	epoch, retired, err := ia.pager.CommitOverlays(st.pages)
	if err != nil {
		return fail(err)
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	ia.snap.Store(&iallState{epoch: epoch, tree: tree})
	return res, nil
}

// maintainIAllTree applies the changed cell intervals to a hydrated copy of
// the per-cell tree and persists it to fresh pages, leaving the published
// tree untouched for readers at older epochs. When no interval changed it
// returns the current tree unchanged.
func maintainIAllTree(qc *storage.QueryCtx, cur *rstar.Tree, pager *storage.Pager,
	cells []field.CellID, oldIvs, newIvs []geom.Interval) (*rstar.Tree, int, error) {
	changed := false
	for i := range cells {
		if oldIvs[i] != newIvs[i] {
			changed = true
			break
		}
	}
	if !changed {
		return cur, 0, nil
	}
	qc.BeginSpan(obs.PhaseMaintain)
	work, err := cur.Hydrate(qc)
	if err != nil {
		return nil, 0, err
	}
	for i, id := range cells {
		if oldIvs[i] == newIvs[i] {
			continue
		}
		if !work.Delete(rstar.Entry{MBR: rstar.Interval1D(oldIvs[i].Lo, oldIvs[i].Hi), Data: uint64(id)}) {
			return nil, 0, fmt.Errorf("core: cell %d interval %v not in index", id, oldIvs[i])
		}
		if err := work.Insert(rstar.Entry{MBR: rstar.Interval1D(newIvs[i].Lo, newIvs[i].Hi), Data: uint64(id)}); err != nil {
			return nil, 0, err
		}
	}
	qc.EndSpan()
	if err := work.Persist(pager); err != nil {
		return nil, 0, err
	}
	return work, work.PersistedNodes(), nil
}

// ApplyUpdates implements Updater for the partitioned indexes. After patching
// the cell records it re-derives the subfield partition with the build's own
// rule (§3.1.2's greedy cost bound for I-Hilbert, the fixed size threshold
// for I-Threshold) over the updated intervals: when the boundaries are
// unchanged, only the drifted groups' intervals and summaries are refreshed
// and the R*-tree is patched incrementally; when a boundary moved, the
// partition is re-cut and a fresh tree built — exactly the groups a rebuild
// from scratch on the mutated field would produce (the heap order is the
// geometric linearization, which updates never change). I-Quad and files
// saved without a sidecar do not support updates.
func (p *Partitioned) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	p.updMu.Lock()
	defer p.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(p.ob.Tracer, string(p.method), obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := p.applyUpdates(ctx, f, updates, cells, tb)
	tb.Finish(err)
	if err == nil {
		p.recordUpdate(res)
	}
	return res, err
}

func (p *Partitioned) applyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	if p.method == MethodIQuad {
		return nil, fmt.Errorf("core: %s regrouping is spatial: %w", p.method, ErrUpdatesUnsupported)
	}
	cur := p.snap.Load()
	if len(updates) == 0 {
		return &UpdateResult{Epoch: cur.epoch}, nil
	}
	qc := p.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	if err := p.ensureUpdateState(qc); err != nil {
		return nil, err
	}
	undo, err := applySamples(f, updates)
	if err != nil {
		return nil, err
	}
	var ivUndo []struct {
		pos int
		iv  geom.Interval
	}
	fail := func(err error) (*UpdateResult, error) {
		for i := len(ivUndo) - 1; i >= 0; i-- {
			p.ivs[ivUndo[i].pos] = ivUndo[i].iv
		}
		undoSamples(f, undo)
		return nil, err
	}
	st := newOverlayStage(qc)
	var scratch field.Cell
	var enc []byte
	changed := false
	changedCells, changedArea := 0, 0.0
	qc.BeginSpan(obs.PhasePatch)
	for _, id := range cells {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		pos, ok := p.posOf[id]
		if !ok {
			return fail(fmt.Errorf("core: cell %d not in partition order", id))
		}
		oldIv, newIv, enc2, err := st.patchCell(f, id, pos, p.rids, p.sidecar, &scratch, enc)
		if err != nil {
			return fail(err)
		}
		enc = enc2
		ivUndo = append(ivUndo, struct {
			pos int
			iv  geom.Interval
		}{pos, p.ivs[pos]})
		p.ivs[pos] = newIv
		if oldIv != newIv {
			changed = true
			// scratch holds the re-encoded cell; its area feeds the summary's
			// widening slack when the index has no per-cell areas to refit
			// from (a cell whose interval moved shifts each cumulative
			// distribution by at most one count and its own area).
			changedCells++
			changedArea += scratch.Area()
		}
	}
	qc.EndSpan()
	// One maintenance span covers the regrouping (greedy re-cut, tree patch or
	// rebuild) and the summary refit, so an update's trace accounts for the
	// time and the page reads of both.
	qc.BeginSpan(obs.PhaseMaintain)
	tree, groups, indexPages, regrouped, err := p.maintainPartition(qc, cur, changed)
	if err != nil {
		return fail(err)
	}
	// An interval-changing batch moves the cumulative distributions the field
	// summary approximates; refresh it in the same overlay set so summary and
	// data version together under one epoch. An unchanged batch leaves the
	// distributions — and the summary — untouched.
	if changed {
		if err := p.maintainSummary(st, changedCells, changedArea); err != nil {
			return fail(err)
		}
	}
	qc.EndSpan()
	res := &UpdateResult{
		SamplesApplied:    len(updates),
		CellsTouched:      len(cells),
		PagesWritten:      len(st.pages),
		IndexPagesWritten: indexPages,
		Regrouped:         regrouped,
		IO:                qc.Stats(),
	}
	// Tree persistence wrote one counted page per node outside the query
	// context; fold them in so pager totals stay Σ published stats.
	res.IO.Writes += indexPages
	epoch, retired, err := p.pager.CommitOverlays(st.pages)
	if err != nil {
		return fail(err)
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	p.snap.Store(&partState{epoch: epoch, tree: tree, groups: groups})
	return res, nil
}

// ensureUpdateState hydrates the update-path state a file-opened index lacks:
// the per-position interval column (recovered from the sidecar, whose entries
// are bit-identical to the stored records) and the cell→position map. Indexes
// built in memory carry both already.
func (p *Partitioned) ensureUpdateState(qc *storage.QueryCtx) error {
	if p.posOf == nil {
		p.posOf = make(map[field.CellID]int, len(p.order))
		for pos, id := range p.order {
			p.posOf[id] = pos
		}
	}
	if p.ivs != nil {
		return nil
	}
	if p.sidecar == nil || p.rids == nil {
		return fmt.Errorf("core: file has no interval sidecar: %w", ErrUpdatesUnsupported)
	}
	qc.BeginSpan(obs.PhaseMaintain)
	ivs := make([]geom.Interval, p.cells)
	err := p.sidecar.ScanRange(qc, 0, p.cells, func(base int, lo, hi []float64) bool {
		for i := range lo {
			ivs[base+i] = geom.Interval{Lo: lo[i], Hi: hi[i]}
		}
		return true
	})
	if err != nil {
		return err
	}
	qc.EndSpan()
	p.ivs = ivs
	return nil
}

// maintainPartition re-derives the subfield partition from the updated
// interval column and returns the next snapshot's tree and groups. The caller
// must hold updMu and an open PhaseMaintain span on qc; p.ivs is current.
func (p *Partitioned) maintainPartition(qc *storage.QueryCtx, cur *partState, changed bool) (*rstar.Tree, []groupMeta, int, bool, error) {
	if !changed {
		return cur.tree, cur.groups, 0, false, nil
	}
	refs := make([]subfield.CellRef, p.cells)
	for i := range refs {
		refs[i] = subfield.CellRef{ID: p.order[i], Interval: p.ivs[i]}
	}
	var next []subfield.Group
	switch p.method {
	case MethodIThresh:
		next = subfield.BuildThreshold(refs, p.cost, p.maxSize)
	default:
		next = subfield.BuildGreedy(refs, p.cost)
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
		tree, groups, indexPages, err := p.refreshGroups(qc, cur, next)
		return tree, groups, indexPages, false, err
	}
	tree, groups, indexPages, err := p.recutGroups(next)
	return tree, groups, indexPages, true, err
}

// refreshGroups handles the boundary-stable case: group extents are
// unchanged, so only the groups whose interval or summary drifted are
// rebuilt, and the R*-tree is patched entry by entry on a hydrated copy.
func (p *Partitioned) refreshGroups(qc *storage.QueryCtx, cur *partState, next []subfield.Group) (*rstar.Tree, []groupMeta, int, error) {
	groups := make([]groupMeta, len(cur.groups))
	copy(groups, cur.groups)
	var work *rstar.Tree
	indexPages := 0
	for gi, g := range next {
		old := &groups[gi]
		avg := groupAvg(p.ivs, g.Start, g.End)
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
		if err := work.Persist(p.pager); err != nil {
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
func (p *Partitioned) recutGroups(next []subfield.Group) (*rstar.Tree, []groupMeta, int, error) {
	groups := make([]groupMeta, len(next))
	tree, err := rstar.New(1, rstar.Params{PageSize: p.pager.PageSize()})
	if err != nil {
		return nil, nil, 0, err
	}
	for gi, g := range next {
		first := p.heap.PageIndex(p.rids[g.Start].Page)
		last := p.heap.PageIndex(p.rids[g.End-1].Page)
		if first < 0 || last < 0 {
			return nil, nil, 0, fmt.Errorf("core: regrouped subfield %d pages not found", gi)
		}
		groups[gi] = groupMeta{
			interval: g.Interval, firstPage: first, lastPage: last,
			cells: g.Len(), startRef: g.Start, endRef: g.End,
			avg: groupAvg(p.ivs, g.Start, g.End),
		}
		if err := tree.Insert(rstar.Entry{MBR: rstar.Interval1D(g.Interval.Lo, g.Interval.Hi), Data: uint64(gi)}); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := tree.Persist(p.pager); err != nil {
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

// ApplyUpdates implements Updater for I-Auto: the underlying partitioned
// index applies the batch, then the selectivity histogram is rebuilt from the
// mutated field and published atomically with the new partition state.
func (a *Auto) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	a.updMu.Lock()
	defer a.updMu.Unlock()
	res, err := a.part.ApplyUpdates(ctx, f, updates)
	if err != nil {
		return nil, err
	}
	st := a.state.Load()
	a.state.Store(&autoState{ps: a.part.snap.Load(), h: buildAutoHist(f, len(st.h.bins))})
	return res, nil
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

var (
	_ Updater = (*LinearScan)(nil)
	_ Updater = (*IAll)(nil)
	_ Updater = (*Partitioned)(nil)
	_ Updater = (*Auto)(nil)
)
