package core

import (
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
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

// planCandidates is I-Auto's filter: the partitioned filter behind a planner.
// The plan span carries the histogram estimate (no page reads); past the
// threshold the whole heap is the one candidate run — the scan access path —
// and otherwise the subfield tree selects runs as for I-Hilbert.
func (p *partition) planCandidates(st *partState, pr *probe) error {
	pr.begin(obs.PhasePlan)
	sel := 0.0
	if p.cells > 0 {
		sel = st.hist.estimate(pr.q, p.cells)
	}
	pr.end()
	if sel > autoScanThreshold {
		p.scanQueries.Add(1)
		return p.heapCandidates(st, pr)
	}
	p.filterQueries.Add(1)
	return p.groupCandidates(st, pr)
}

// maintainPlanned is I-Auto's maintenance: the partition's, plus a histogram
// rebuilt from the mutated field whenever a cell interval moved.
func (p *partition) maintainPlanned(stage *overlayStage, f field.Field, cur *partState, ch *changes) (*partState, int, bool, error) {
	next, indexPages, regrouped, err := p.regroup(stage, f, cur, ch)
	if err != nil {
		return nil, 0, false, err
	}
	next.hist = cur.hist
	if len(ch.cells) > 0 {
		next.hist = buildAutoHist(f, len(cur.hist.bins))
	}
	return next, indexPages, regrouped, nil
}
