package core

import (
	"context"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// MethodAuto is the adaptive planner: per query it estimates selectivity
// from a value histogram and chooses between the I-Hilbert filter pipeline
// and a plain sequential scan. The experiments (Fig 11a at H = 0.1, wide
// Qintervals on Fig 8a) show both regimes exist: subfield filtering wins at
// low selectivity while a pure sequential scan is hard to beat when most
// cells match anyway.
const MethodAuto Method = "I-Auto"

// autoHist is one immutable histogram version: bins[i] counts cells whose
// interval intersects the i-th equi-width bin of [lo, lo + len(bins)*width].
type autoHist struct {
	bins  []int
	width float64
	lo    float64
}

// buildAutoHist scans the field's cells into a fresh histogram with the given
// resolution.
func buildAutoHist(f field.Field, bins int) *autoHist {
	vr := f.ValueRange()
	width := vr.Length() / float64(bins)
	if width <= 0 {
		width = 1
	}
	h := &autoHist{bins: make([]int, bins), width: width, lo: vr.Lo}
	var c field.Cell
	for id := 0; id < f.NumCells(); id++ {
		f.Cell(field.CellID(id), &c)
		iv := c.Interval()
		b0, b1 := h.binOf(iv.Lo), h.binOf(iv.Hi)
		for b := b0; b <= b1; b++ {
			h.bins[b]++
		}
	}
	return h
}

func (h *autoHist) binOf(w float64) int {
	b := int((w - h.lo) / h.width)
	if b < 0 {
		return 0
	}
	if b >= len(h.bins) {
		return len(h.bins) - 1
	}
	return b
}

// estimate returns the histogram's (over-)estimate of the fraction of cells
// (out of the given total) whose interval intersects q.
func (h *autoHist) estimate(q geom.Interval, cells int) float64 {
	b0, b1 := h.binOf(q.Lo), h.binOf(q.Hi)
	max := 0
	for b := b0; b <= b1; b++ {
		// Bins double-count cells spanning several bins; taking the max
		// rather than the sum keeps the estimate in [0, 1] and close for
		// narrow queries, while wide queries are dominated by the largest
		// bin anyway.
		if h.bins[b] > max {
			max = h.bins[b]
		}
	}
	est := float64(max) / float64(cells) * float64(b1-b0+1)
	if est > 1 {
		est = 1
	}
	return est
}

// ScanQueries returns how many queries the planner answered with the
// sequential-scan access path.
func (e *executor) ScanQueries() int { return int(e.scanQueries.Load()) }

// FilterQueries returns how many queries the planner answered with the
// subfield filter pipeline.
func (e *executor) FilterQueries() int { return int(e.filterQueries.Load()) }

// AutoOptions tunes BuildAuto.
type AutoOptions struct {
	// Hilbert carries the underlying index options.
	Hilbert HilbertOptions
	// Bins is the histogram resolution (default 64).
	Bins int
	// ScanThreshold is the estimated selectivity above which the planner
	// scans (default 0.45: the subfield path's random run starts stop
	// paying off roughly when half the data matches).
	ScanThreshold float64
}

// BuildAuto builds the I-Hilbert index plus the selectivity histogram.
func BuildAuto(f field.Field, pager *storage.Pager, opts AutoOptions) (*Auto, error) {
	return BuildAutoCtx(context.Background(), f, pager, opts)
}

// BuildAutoCtx is BuildAuto with construction cancellation.
func BuildAutoCtx(ctx context.Context, f field.Field, pager *storage.Pager, opts AutoOptions) (*Auto, error) {
	part, err := BuildIHilbertCtx(ctx, f, pager, opts.Hilbert)
	if err != nil {
		return nil, err
	}
	bins := opts.Bins
	if bins <= 0 {
		bins = 64
	}
	threshold := opts.ScanThreshold
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.45
	}
	// The same index under the planner's hooks: the histogram is published in
	// the same state as the partition it plans over, so a reader never plans
	// on a histogram from one epoch and refines against another.
	ix := part.valueIndex
	ix.method, ix.scanThreshold = MethodAuto, threshold
	st := *ix.snap.Load()
	st.hist = buildAutoHist(f, bins)
	return &Auto{newExecutor(ix, &st)}, nil
}

// EstimateSelectivity returns the histogram's (over-)estimate of the
// fraction of cells whose interval intersects q.
func (e *executor) EstimateSelectivity(q geom.Interval) float64 {
	if e.cells == 0 || q.IsEmpty() {
		return 0
	}
	return e.cur().hist.estimate(q, e.cells)
}

// planCandidates is I-Auto's filter: the partitioned filter behind a planner.
// The plan span carries the histogram estimate (no page reads); past the
// threshold the whole heap is the one candidate run — the scan access path —
// and otherwise the subfield tree selects runs as for I-Hilbert.
func (ix *valueIndex) planCandidates(st *state, pr *probe) error {
	pr.begin(obs.PhasePlan)
	sel := 0.0
	if ix.cells > 0 {
		sel = st.hist.estimate(pr.q, ix.cells)
	}
	pr.end()
	if sel > ix.scanThreshold {
		ix.scanQueries.Add(1)
		return ix.heapCandidates(st, pr)
	}
	ix.filterQueries.Add(1)
	return ix.groupCandidates(st, pr)
}

// maintainPlanned is I-Auto's maintenance: the partition's, plus a histogram
// rebuilt from the mutated field whenever a cell interval moved.
func (ix *valueIndex) maintainPlanned(stage *overlayStage, f field.Field, cur *state, ch *changes) (*state, int, bool, error) {
	next, indexPages, regrouped, err := ix.maintainGroups(stage, f, cur, ch)
	if err != nil {
		return nil, 0, false, err
	}
	next.hist = cur.hist
	if len(ch.cells) > 0 {
		next.hist = buildAutoHist(f, len(cur.hist.bins))
	}
	return next, indexPages, regrouped, nil
}
