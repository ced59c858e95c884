package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

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
	// (cell, sidecar and summary pages); IndexPagesWritten counts the fresh
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
			return nil, fmt.Errorf("%w: update sample %d of %d", ErrOutsideField, u.Sample, f.NumSamples())
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
// CommitOverlays installs the whole set at the next epoch. ctx is the batch's
// and pager is where a maintain hook persists the fresh tree pages of the next
// state.
type overlayStage struct {
	ctx   context.Context
	pager *storage.Pager
	qc    *storage.QueryCtx
	pages map[storage.PageID][]byte
}

// page returns the staged image of id, reading it on first use.
func (st *overlayStage) page(id storage.PageID) ([]byte, error) {
	if buf, ok := st.pages[id]; ok {
		return buf, nil
	}
	var buf []byte
	err := st.qc.ReadRun(id, id, func(_ storage.PageID, page []byte) bool {
		buf = bytes.Clone(page)
		return true
	})
	if err != nil {
		return nil, err
	}
	st.pages[id] = buf
	return buf, nil
}

// changes is what one update batch did to one partition's cells: the cells
// whose stored interval moved, in patch order, with their planar area (the
// slack a widened summary grows by), and the interval-column entries to put
// back if the batch fails.
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

// patch re-encodes cell id from the (already mutated) field and patches its
// heap record — and, where LinearScan keeps a sidecar, its interval columns —
// in the staged images, keeps the in-memory interval column current and
// records an interval change in ch. The sidecar entry is written from the
// re-encoded record exactly the way the build wrote it, so the columns stay
// bit-identical to CellIntervalFromRecord of the stored record. It returns the
// reusable encode buffer.
func (p *partition) patch(stage *overlayStage, f field.Field, id field.CellID, ch *changes, scratch *field.Cell, enc []byte) ([]byte, error) {
	pos, err := p.position(id)
	if err != nil {
		return enc, err
	}
	rid, err := p.heap.Locate(pos)
	if err != nil {
		return enc, err
	}
	page, err := stage.page(rid.Page)
	if err != nil {
		return enc, err
	}
	rec, err := storage.RecordInPage(page, rid.Slot)
	if err != nil {
		return enc, err
	}
	oldIv, err := field.CellIntervalFromRecord(rec)
	if err != nil {
		return enc, err
	}
	f.Cell(id, scratch)
	if err = scratch.Validate(); err != nil {
		return enc, fmt.Errorf("core: updated cell %d: %w", id, err)
	}
	enc = field.AppendCell(enc[:0], scratch)
	if err = storage.PatchRecordInPage(page, rid.Slot, enc); err != nil {
		return enc, fmt.Errorf("core: cell %d: %w", id, err)
	}
	newIv, err := field.CellIntervalFromRecord(enc)
	if err != nil {
		return enc, err
	}
	if p.sidecar != nil {
		spid, idx, err := p.sidecar.PageFor(pos)
		if err != nil {
			return enc, err
		}
		spage, err := stage.page(spid)
		if err != nil {
			return enc, err
		}
		if err = p.sidecar.PatchEntry(spage, spid, idx, newIv.Lo, newIv.Hi); err != nil {
			return enc, err
		}
	}
	if p.ivs != nil {
		ch.undo = append(ch.undo, ivRestore{pos, p.ivs[pos]})
		p.ivs[pos] = newIv
	}
	if oldIv != newIv {
		// scratch holds the re-encoded cell.
		ch.cells = append(ch.cells, id)
		ch.old = append(ch.old, oldIv)
		ch.new = append(ch.new, newIv)
		ch.area += scratch.Area()
	}
	return enc, nil
}

// restore puts the interval column back to its pre-batch contents, in reverse
// patch order so a cell patched twice unwinds to its original interval.
func (p *partition) restore(ch *changes) {
	for i := len(ch.undo) - 1; i >= 0; i-- {
		p.ivs[ch.undo[i].pos] = ch.undo[i].iv
	}
}

// partUpdate is one partition's share of an update batch: its state when the
// batch began, the field its local ids address, what the batch changed and the
// state that results.
type partUpdate struct {
	cur  *partState
	view field.Field
	ch   changes
	next *partState
}

// partView returns the field partition pi's local ids address: f itself for an
// untiled store, a tile's view of it otherwise. A tile opened from a file has
// no view: the caller's live field is attached on first use (updMu serializes
// updaters, and readers never touch views).
func (s *store) partView(pi int, f field.Field, cur *state) field.Field {
	if s.tileSide == 0 {
		return f
	}
	p := s.parts[pi]
	if p.view == nil {
		p.view = &tileField{parent: f, ids: p.ids, bounds: p.mbr, vr: cur.vr[pi]}
	}
	return p.view
}

// nextState assembles the state to publish at epoch: the involved partitions'
// next states beside the others' current ones, and value ranges widened to
// cover the new intervals, which keeps the prune step safe.
func nextState(cur *state, epoch uint64, involved []int, work []partUpdate) *state {
	next := &state{epoch: epoch, vr: slices.Clone(cur.vr), parts: slices.Clone(cur.parts)}
	for _, pi := range involved {
		next.parts[pi] = work[pi].next
		next.vr[pi] = work[pi].ch.widen(next.vr[pi])
	}
	return next
}

// widen returns vr grown to cover the batch's new intervals. A widened range
// stays a superset of every member interval (an unchanged cell's is already
// inside) without rescanning untouched cells; it never shrinks.
func (ch *changes) widen(vr geom.Interval) geom.Interval {
	for _, iv := range ch.new {
		vr = vr.Union(iv)
	}
	return vr
}

// ApplyUpdates implements Engine — the one update transaction, whatever the
// store: lock, patch the affected cell records (and sidecar columns) of every
// involved partition into copy-on-write page images, let each partition's
// method maintain its index structure and the store its field summary, commit
// the images as ONE new epoch — readers never observe some tiles updated and
// others not — and publish the new state. Every failure path puts the field's
// samples and the interval columns back; the live epoch is untouched until the
// commit.
func (s *store) ApplyUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	cells := affectedCells(f, updates)
	tb := obs.Begin(s.ob.Tracer, s.label, obs.KindUpdate, float64(len(updates)), float64(len(cells)))
	res, err := s.commitUpdates(ctx, f, updates, cells, tb)
	tb.Finish(err)
	if err == nil {
		s.recordUpdate(res)
	}
	return res, err
}

func (s *store) commitUpdates(ctx context.Context, f field.Mutable, updates []SampleUpdate, cells []field.CellID, tb *obs.TraceBuilder) (*UpdateResult, error) {
	cur := s.snap.Load()
	if len(updates) == 0 {
		return &UpdateResult{Epoch: cur.epoch}, nil
	}
	qc := s.pager.BeginQuery()
	defer qc.Release()
	qc.AttachTrace(tb)
	// Route every affected cell to its partition; involved lists the distinct
	// partitions the batch touches, in ascending order.
	type cellRoute struct {
		part  int
		local field.CellID
	}
	routes := make([]cellRoute, len(cells))
	work := make([]partUpdate, len(s.parts))
	var involved []int
	for i, id := range cells {
		part, local, err := s.route(id)
		if err != nil {
			return nil, err
		}
		routes[i] = cellRoute{part, local}
		if w := &work[part]; w.cur == nil {
			w.cur, w.view = cur.parts[part], s.partView(part, f, cur)
			involved = append(involved, part)
		}
	}
	sort.Ints(involved)
	// Hydrate the partitions' update state (the interval column) before
	// mutating anything.
	for _, pi := range involved {
		if err := s.parts[pi].ensureUpdateState(qc); err != nil {
			return nil, err
		}
	}
	undo, err := applySamples(f, updates)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*UpdateResult, error) {
		for _, pi := range involved {
			s.parts[pi].restore(&work[pi].ch)
		}
		undoSamples(f, undo)
		return nil, err
	}
	stage := &overlayStage{ctx: ctx, pager: s.pager, qc: qc, pages: make(map[storage.PageID][]byte)}
	var scratch field.Cell
	var enc []byte
	qc.BeginSpan(obs.PhasePatch)
	for _, r := range routes {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		w := &work[r.part]
		var err error
		if enc, err = s.parts[r.part].patch(stage, w.view, r.local, &w.ch, &scratch, enc); err != nil {
			return fail(err)
		}
	}
	qc.EndSpan()
	// Maintain: each involved partition's hook, then the field summary — an
	// interval-changing batch moves the cumulative distributions it
	// approximates — under one span, so an update's trace accounts for the time
	// and the page reads of both; a store with neither has no such span. The
	// refreshed summary rides in the same overlay set, so summary and data
	// version together under one epoch.
	maintains := s.sumPages > 0
	for _, pi := range involved {
		maintains = maintains || s.parts[pi].maintain != nil
	}
	if maintains {
		qc.BeginSpan(obs.PhaseMaintain)
	}
	indexPages, regrouped := 0, false
	changedCells, changedArea := 0, 0.0
	for _, pi := range involved {
		p, w := s.parts[pi], &work[pi]
		w.next = &partState{}
		if p.maintain != nil {
			next, ipgs, rg, err := p.maintain(stage, w.view, w.cur, &w.ch)
			if err != nil {
				return fail(err)
			}
			w.next = next
			indexPages += ipgs
			regrouped = regrouped || rg
		}
		changedCells += len(w.ch.cells)
		changedArea += w.ch.area
	}
	if err := s.maintainSummary(stage, changedCells, changedArea); err != nil {
		return fail(err)
	}
	if maintains {
		qc.EndSpan()
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
	epoch, retired, err := s.pager.CommitOverlays(stage.pages)
	if err != nil {
		return fail(err)
	}
	res.Epoch, res.EpochsRetired = epoch, retired
	s.snap.Store(nextState(cur, epoch, involved, work))
	return res, nil
}

// recordUpdate folds a committed batch into the metrics registry and appends
// the batch counters to the trace (Lo = samples, Hi = distinct cells).
func (o *observed) recordUpdate(res *UpdateResult) {
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordUpdate(res.SamplesApplied, res.CellsTouched,
			int64(res.PagesWritten+res.IndexPagesWritten), int64(res.EpochsRetired), res.Regrouped)
	}
}

// position returns the heap position of cell id: the id itself in natural
// order, the build's or the catalog's immutable map under a cut.
// It refuses an id out of the partition's range.
func (p *partition) position(id field.CellID) (int, error) {
	if int(id) >= p.cells {
		return 0, fmt.Errorf("core: cell %d has no located record", id)
	}
	if p.posOf != nil {
		return int(p.posOf[id]), nil
	}
	return int(id), nil
}

// ensureUpdateState hydrates the update-path state of a file-opened
// partitioned index: the per-position interval column, decoded with
// CellIntervalFromRecord from one pass over its own heap records — the very
// bits the build's column holds —, which must be exactly the records the
// heap file locates. Natural-order methods need none.
func (p *partition) ensureUpdateState(qc *storage.QueryCtx) error {
	if p.order == nil || p.ivs != nil {
		return nil
	}
	qc.BeginSpan(obs.PhaseMaintain)
	ivs := make([]geom.Interval, 0, p.cells)
	var recErr error
	err := p.heap.ScanPagesCtx(qc, 0, p.heap.NumPages()-1, func(rid storage.RID, rec []byte) bool {
		if want, err := p.heap.Locate(len(ivs)); err != nil || rid != want {
			recErr = fmt.Errorf("core: heap record %v is not at position %d", rid, len(ivs))
			return false
		}
		iv, err := field.CellIntervalFromRecord(rec)
		ivs, recErr = append(ivs, iv), err
		return err == nil
	})
	if err = cmp.Or(err, recErr); err == nil && len(ivs) < p.cells {
		err = fmt.Errorf("core: heap holds %d of %d records", len(ivs), p.cells)
	}
	if err != nil {
		return err
	}
	qc.EndSpan()
	p.ivs = ivs
	return nil
}

// regroup is the maintain hook of the Hilbert-cut partitions. It re-runs
// the build's cut over the updated interval column, so the next state's groups
// are exactly those a rebuild from scratch on the mutated field would cut (the
// heap order is the geometric linearization, which updates never change), and
// patches the current state into them with one merge walk over the old and new
// group lists, matched by extent [start, end):
//
//   - a kept group keeps its tree entry, deleted and re-inserted only when its
//     interval drifted; its avg is refreshed;
//   - a departed group's entry is deleted, an arrived group's inserted.
//
// Group indices shift where the cut moved, so there the survivors' payloads
// are renumbered first, by one walk over the leaves of the hydrated copy, and
// the departed ones moved past the new groups, where no insert can collide
// with them. Then every delete runs, then every insert — which leaves fewer
// nodes than pairing them up — and the copy is persisted whole, in depth-first
// order, so a filter's sequential page charges stay what they were. The tree's
// shape is the patched tree's, not a fresh build's; its entries — and with
// them groups, candidates and answers — are the rebuild's. regrouped reports a
// cut that moved a boundary; without one no index shifts. p.ivs is current.
func (p *partition) regroup(stage *overlayStage, _ field.Field, cur *partState, ch *changes) (*partState, int, bool, error) {
	if len(ch.cells) == 0 {
		return &partState{tree: cur.tree, groups: cur.groups}, 0, false, nil
	}
	// The cut's input is one buffer per partition, made by its first batch
	// rather than its build; updMu serializes the batches that reuse it.
	if p.refs == nil {
		p.refs = make([]subfield.CellRef, p.cells)
	}
	for i := range p.refs {
		p.refs[i] = subfield.CellRef{ID: p.order[i], Interval: p.ivs[i]}
	}
	next := subfield.BuildGreedy(p.refs, subfield.DefaultCostModel)
	old := cur.groups
	groups := make([]groupMeta, len(next))
	// to renumbers old payloads; drops and adds are the tree entries to delete
	// and to insert, under the new numbering.
	to := make([]uint64, len(old))
	var drops, adds []rstar.Entry
	regrouped := false
	depart := func(i int) {
		to[i] = uint64(len(next) + i)
		drops = append(drops, groupEntry(int(to[i]), old[i].interval))
		regrouped = true
	}
	arrive := func(j int) error {
		var err error
		groups[j], err = p.groupMetaOf(next[j])
		adds = append(adds, groupEntry(j, next[j].Interval))
		regrouped = true
		return err
	}
	for i, j := 0, 0; i < len(old) || j < len(next); {
		switch {
		case j == len(next) || i < len(old) && old[i].startRef < next[j].Start:
			depart(i)
			i++
		case i == len(old) || next[j].Start < old[i].startRef:
			if err := arrive(j); err != nil {
				return nil, 0, false, err
			}
			j++
		case old[i].endRef != next[j].End:
			depart(i)
			if err := arrive(j); err != nil {
				return nil, 0, false, err
			}
			i, j = i+1, j+1
		default:
			g := old[i]
			to[i] = uint64(j)
			if g.interval != next[j].Interval {
				drops = append(drops, groupEntry(j, g.interval))
				adds = append(adds, groupEntry(j, next[j].Interval))
				g.interval = next[j].Interval
			}
			g.avg = groupAvg(p.ivs, g.startRef, g.endRef)
			groups[j] = g
			i, j = i+1, j+1
		}
	}
	if len(drops)+len(adds) == 0 {
		return &partState{tree: cur.tree, groups: groups}, 0, false, nil
	}
	work, err := cur.tree.Hydrate(stage.qc)
	if err != nil {
		return nil, 0, false, err
	}
	if regrouped {
		work.Renumber(func(d uint64) uint64 { return to[d] })
	}
	for _, e := range drops {
		if !work.Delete(e) {
			return nil, 0, false, fmt.Errorf("core: subfield entry %v of payload %d not in index", e.MBR, e.Data)
		}
	}
	for _, e := range adds {
		if err := work.Insert(e); err != nil {
			return nil, 0, false, err
		}
	}
	if err := work.Persist(stage.pager); err != nil {
		return nil, 0, false, err
	}
	return &partState{tree: work, groups: groups}, work.PersistedNodes(), regrouped, nil
}
