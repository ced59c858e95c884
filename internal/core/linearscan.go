package core

import (
	"cmp"

	"fielddb/internal/field"
	"fielddb/internal/obs"
)

// sidecarCandidates is LinearScan's filter with a sidecar: one sequential
// pass over the packed interval pages tests every cell, and the survivors'
// positions ascend — so the refinement reads only the heap pages holding
// survivors and folds the answer in exactly the order the full scan
// produces, byte-identical to heapCandidates' Result.
func (p *partition) sidecarCandidates(_ *partState, pr *probe) error {
	pr.begin(obs.PhaseSidecar)
	err := p.sidecar.ScanRangeScratch(pr.qc, 0, p.cells, &pr.cols, pr.keepCols)
	if err = cmp.Or(err, pr.scanErr); err != nil {
		return err
	}
	pr.fetched = p.cells
	pr.sidecarReads = pr.end().Reads
	return nil
}

// keep is sidecarCandidates' column visitor: it keeps the positions of a
// sidecar page's intervals that meet the query, and stops the scan once the
// query's context is done.
func (pr *probe) keep(base int, lo, hi []float64) bool {
	pr.pos = field.FilterIntervals(pr.pos, int32(base), lo, hi, pr.q.Lo, pr.q.Hi)
	pr.scanErr = pr.ctx.Err()
	return pr.scanErr == nil
}

// heapCandidates is the filter of a scan without a sidecar: there is no
// filter step, the whole heap is one run and the refinement tests every
// record.
func (p *partition) heapCandidates(_ *partState, pr *probe) error {
	if n := p.heap.NumPages(); n > 0 {
		pr.runs = append(pr.runs, pageRun{first: 0, last: n - 1})
	}
	return nil
}
