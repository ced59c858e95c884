package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// groupMeta is the leaf payload of a subfield index: the subfield's value
// interval and the physical run of heap-file pages holding its cells —
// the (ptr_start, ptr_end) pointers of the paper's Figure 6.
type groupMeta struct {
	interval  geom.Interval
	firstPage int // index into the heap file's page list
	lastPage  int
	cells     int
	startRef  int // [startRef, endRef) into the partition's cell order
	endRef    int
	// avg is the mean of the member cells' interval midpoints — the extra
	// per-subfield summary the paper suggests appending (§3: "We may append
	// other kinds of values ... for example, the average of field values of
	// subfield"). It powers approximate aggregate queries that never touch
	// cell pages.
	avg float64
}

// groupMetaOf computes the leaf payload of one subfield of the stored
// partition from the current interval column.
func (p *partition) groupMetaOf(g subfield.Group) (groupMeta, error) {
	first, err := p.heap.PageOf(g.Start)
	if err != nil {
		return groupMeta{}, err
	}
	last, err := p.heap.PageOf(g.End - 1)
	if err != nil {
		return groupMeta{}, err
	}
	return groupMeta{
		interval: g.Interval, firstPage: first, lastPage: last,
		cells: g.Len(), startRef: g.Start, endRef: g.End,
		avg: groupAvg(p.ivs, g.Start, g.End),
	}, nil
}

// groupAvg is the paper's per-subfield summary: the mean of the member
// cells' interval midpoints, folded in position order.
func groupAvg(ivs []geom.Interval, start, end int) float64 {
	sum := 0.0
	for i := start; i < end; i++ {
		sum += (ivs[i].Lo + ivs[i].Hi) / 2
	}
	return sum / float64(end-start)
}

// groupEntry is the tree entry of subfield gi.
func groupEntry(gi int, iv geom.Interval) rstar.Entry {
	return rstar.Entry{MBR: rstar.Interval1D(iv.Lo, iv.Hi), Data: uint64(gi)}
}

// grouped returns the partition whose subfields are the store's: the one
// partition of an untiled store, where a rule cut it. A tile directory is not
// a subfield partition of the field, whatever runs inside the tiles.
func (s *store) grouped() *partition {
	if s.tileSide != 0 || s.parts[0].order == nil {
		return nil
	}
	return s.parts[0]
}

// ForEachGroup implements Engine: it visits every subfield with its value
// interval and member cells (in physical storage order) — the data behind the
// paper's Figure 7 subfield map. The cells slice is only valid during the
// call. A store without a subfield partition has none to visit.
func (e *engine) ForEachGroup(fn func(group int, iv geom.Interval, cells []field.CellID) bool) {
	p := e.grouped()
	if p == nil {
		return
	}
	for gi, g := range e.cur().parts[0].groups {
		if !fn(gi, g.interval, p.order[g.startRef:g.endRef]) {
			return
		}
	}
}

// ApproxResult is the outcome of an approximate value query answered purely
// from subfield metadata, without fetching a single cell page.
type ApproxResult struct {
	Query geom.Interval
	// Groups is the number of subfields whose interval intersects the query.
	Groups int
	// CellsUpperBound is the total cell count of those subfields — an upper
	// bound on the number of matching cells.
	CellsUpperBound int
	// AvgValue is the cell-weighted mean of the selected subfields' average
	// values (the paper's suggested per-subfield summary), or NaN when no
	// subfield matches.
	AvgValue float64
	IO       storage.Stats
}

// ApproxQueryContext answers a value query approximately using only the
// R*-tree and the per-subfield summaries (§3's "average of field values of
// subfield"): it never reads cell pages, so its cost is the filter step
// alone — ctx is checked up front. The cell count is an upper bound; the
// average is exact over the selected subfields' midpoint summaries. On a
// snapshot the subfield metadata is the pinned state's, so a later re-cut of
// the live partition never leaks into the answer. Stores without a subfield
// partition fail with ErrNoPartition.
func (e *engine) ApproxQueryContext(ctx context.Context, q geom.Interval) (*ApproxResult, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	if e.grouped() == nil {
		return nil, fmt.Errorf("%w: method %s has no subfield summaries", ErrNoPartition, e.label)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb, start := e.startQuery(e.label, obs.KindApprox, q.Lo, q.Hi)
	st := e.pinState()
	res, err := e.approxAt(st, tb, q)
	e.unpin(st)
	e.endQuery(tb, start, err)
	return res, err
}

func (e *engine) approxAt(st *state, tb *obs.TraceBuilder, q geom.Interval) (*ApproxResult, error) {
	qc := beginQueryAt(e.pager, st.epoch)
	defer qc.Release()
	qc.AttachTrace(tb)
	ps := st.parts[0]
	res := &ApproxResult{Query: q}
	var sum float64
	qc.BeginSpan(obs.PhaseFilter)
	err := ps.tree.PagedSearchCtx(qc, rstar.Interval1D(q.Lo, q.Hi), func(en rstar.Entry) bool {
		g := ps.groups[en.Data]
		res.Groups++
		res.CellsUpperBound += g.cells
		sum += g.avg * float64(g.cells)
		return true
	})
	if err != nil {
		return nil, err
	}
	qc.EndSpan()
	if res.CellsUpperBound > 0 {
		res.AvgValue = sum / float64(res.CellsUpperBound)
	} else {
		res.AvgValue = math.NaN()
	}
	res.IO = qc.Stats()
	e.recordIO(res.IO, 0, res.IO)
	return res, nil
}

// groupCandidates is I-Hilbert's filter (§3, Figure 6): the persisted
// subfield tree selects the subfields whose interval intersects the query,
// and their (ptr_start, ptr_end) page runs — overlapping or adjacent ones
// merged, since consecutive subfields share boundary pages — are the
// candidates. A merged run can cover an interleaved unselected subfield,
// whose cells are provably non-matching (their group interval missed the
// query) and filter out like any other. Subfields tile the heap in order, so
// their runs ascend with their index (a reopened catalog is held to that): the
// search marks the selected ones in the probe's bitmap, and one walk over it
// in index order merges their runs into the probe's buffer — no sort, nothing
// allocated.
func (p *partition) groupCandidates(st *partState, pr *probe) error {
	pr.begin(obs.PhaseFilter)
	words := (len(st.groups) + 63) / 64
	pr.marked = slices.Grow(pr.marked[:0], words)[:words]
	clear(pr.marked)
	if err := pr.searchTree(st.tree, pr.markGroup); err != nil {
		return err
	}
	if pr.groups < 0 {
		return errStrayEntry
	}
	pr.filter = pr.end()
	for w, word := range pr.marked {
		for ; word != 0; word &= word - 1 {
			gi := w*64 + bits.TrailingZeros64(word)
			if gi >= len(st.groups) {
				return errStrayEntry
			}
			g := &st.groups[gi]
			pr.runs = appendRun(pr.runs, pageRun{g.firstPage, g.lastPage})
		}
	}
	return nil
}

// errStrayEntry is a subfield tree entry that names no subfield, which only a
// corrupt file holds.
var errStrayEntry = errors.New("core: subfield tree entry names no subfield")

// mark is groupCandidates' tree visitor: it marks subfield e selected. An
// entry past the bitmap stops the search with groups at -1.
func (pr *probe) mark(e rstar.Entry) bool {
	if e.Data/64 >= uint64(len(pr.marked)) {
		pr.groups = -1
		return false
	}
	pr.marked[e.Data/64] |= 1 << (e.Data % 64)
	pr.groups++
	return true
}
