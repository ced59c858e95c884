package core

import (
	"context"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// partition is one contiguous cell store with a method's index over it: a
// whole untiled field, or one tile of a tiled one. It owns the cells' heap
// segment, LinearScan's interval sidecar and the two hooks a method is; the
// index structure itself — tree, subfields — is the partState its
// store publishes.
type partition struct {
	// heap addresses each record by its position, through its pages' first
	// positions; sidecar is LinearScan's interval segment (nil when disabled,
	// and on every method with a tree).
	heap    *storage.HeapFile
	sidecar *storage.IntervalSidecar
	cells   int
	// What the catalog records of the partition besides its pages: the ids its
	// cells have in the field, ascending (nil for an untiled store's partition,
	// where a cell's id is its own), their MBR and their total planar area
	// — exact for the index's lifetime, value updates never move a vertex.
	ids  []field.CellID
	mbr  geom.Rect
	area float64
	// view presents a tile's cells as a field of their own under local ids, for
	// the update path to re-encode them from: the build's, or — on a tile opened
	// from a file — attached from the caller's field by its first update batch.
	// Nil for an untiled store's partition, which reads the field itself.
	view *tileField

	// The two hooks a method is, bound from its methodSpec row. candidates
	// fills pr with the cells that can match pr.q — positions when byPos, page
	// runs otherwise. maintain returns the state after an update batch whose
	// interval-changing cells are ch, with the R*-tree pages it persisted and
	// whether it re-cut the partition; nil where a method has no structure to
	// maintain. The update transaction calls it under an open PhaseMaintain
	// span on stage.qc.
	candidates func(st *partState, pr *probe) error
	maintain   func(stage *overlayStage, f field.Field, cur *partState, ch *changes) (next *partState, indexPages int, regrouped bool, err error)
	byPos      bool
	// tested marks the one filter that tests every cell interval itself — a
	// scan's sidecar pass: its positions are survivors, not candidates, and a
	// batch can share the pass across members.
	tested bool

	// order is the heap-file cell order of a partitioned method (nil in
	// natural order, where heap position == cell id). posOf is order's
	// inverse, cell id to heap position, filled once at build or open and
	// immutable after; ivs is the current cell interval per heap position,
	// which a file-opened index hydrates from its heap records on its first
	// update, and refs the cut's input an update batch refills, made by the
	// first one.
	order []field.CellID
	posOf []int32
	ivs   []geom.Interval
	refs  []subfield.CellRef
}

// statsAt describes the partition and its index structure at state st.
func (p *partition) statsAt(st *partState) IndexStats {
	s := IndexStats{Cells: p.cells, CellPages: p.heap.NumPages()}
	if st.tree != nil {
		s.IndexPages, s.TreeHeight = st.tree.PersistedNodes(), st.tree.Height()
		s.Groups = p.cells // one entry per cell, unless the tree indexes subfields
	}
	if st.groups != nil {
		s.Groups = len(st.groups)
	}
	if p.sidecar != nil {
		s.SidecarPages = p.sidecar.NumPages()
	}
	return s
}

// probe is one call of a candidates hook: what to search and charge, and the
// candidates found. Probes are pooled; pos, runs, marked, cols and the probe
// itself are reused across queries, so the filter step allocates nothing that
// grows with the candidate count in steady state.
type probe struct {
	ctx context.Context
	qc  *storage.QueryCtx
	q   geom.Interval
	// traced has the hook open its filter spans on qc. Solo queries and batch
	// members do; a tile scan runs under the tile-scan span of its query instead.
	traced bool

	pos  []int32   // ascending heap positions (byPos methods)
	runs []pageRun // merged page-index runs (the others); none = nothing to refine
	// fetched presets Result.CellsFetched where the filter itself tested
	// every cell interval; groups is Result.CandidateGroups.
	fetched int
	groups  int
	// filter is the index-search I/O of the filter step and sidecarReads the
	// reads a sidecar pass served: recordIO's attribution.
	filter       storage.Stats
	sidecarReads int

	before storage.Stats         // qc's activity when the open step began
	marked []uint64              // tree-visit scratch: a bit per subfield
	cols   storage.ColumnScratch // sidecar-scan scratch
	// search runs the filter's tree search.
	search rstar.Searcher
	// scanErr is what stopped a sidecar pass: the query's context.
	scanErr error
	// markGroup, addCell and keepCols are mark, add and keep, bound once
	// when the pool makes the probe.
	markGroup, addCell func(rstar.Entry) bool
	keepCols           func(base int, lo, hi []float64) bool
}

var probePool = sync.Pool{New: func() any {
	pr := new(probe)
	pr.markGroup, pr.addCell, pr.keepCols = pr.mark, pr.add, pr.keep
	return pr
}}

// searchTree visits the entries of tree whose interval intersects the query.
func (pr *probe) searchTree(tree *rstar.Tree, fn func(rstar.Entry) bool) error {
	return pr.search.Search(tree, pr.qc, rstar.Interval1D(pr.q.Lo, pr.q.Hi), fn)
}

func getProbe() *probe { return probePool.Get().(*probe) }

func putProbe(pr *probe) {
	pr.ctx, pr.qc = nil, nil
	probePool.Put(pr)
}

// reset readies the probe for one hook call, keeping its buffers.
func (pr *probe) reset(ctx context.Context, qc *storage.QueryCtx, q geom.Interval, traced bool) {
	*pr = probe{ctx: ctx, qc: qc, q: q, traced: traced, pos: pr.pos[:0], runs: pr.runs[:0], marked: pr.marked, cols: pr.cols,
		search: pr.search, markGroup: pr.markGroup, addCell: pr.addCell, keepCols: pr.keepCols}
}

// begin opens one step of the filter under phase ph; end closes it and returns
// what the step read.
func (pr *probe) begin(ph obs.Phase) {
	pr.before = pr.qc.LocalStats()
	if pr.traced {
		pr.qc.BeginSpan(ph)
	}
}

func (pr *probe) end() storage.Stats {
	if pr.traced {
		pr.qc.EndSpan()
	}
	return pr.qc.LocalStats().Sub(pr.before)
}
