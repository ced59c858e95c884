package core

import (
	"context"

	"fielddb/internal/field"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// LinearScanOptions tunes the LinearScan build.
type LinearScanOptions struct {
	// NoSidecar disables the columnar interval sidecar; queries then scan
	// the full cell heap the way the paper's §2.2.2 baseline does.
	NoSidecar bool
	// Codec selects the sidecar page codec (storage.SidecarCodecRaw or
	// storage.SidecarCodecPacked); empty selects the raw legacy layout.
	Codec string
}

// BuildLinearScan stores the field's cells in a heap file (in natural cell
// order) and returns the scan-based query processor.
func BuildLinearScan(f field.Field, pager *storage.Pager) (*LinearScan, error) {
	return BuildLinearScanCtx(context.Background(), f, pager)
}

// BuildLinearScanCtx is BuildLinearScan with construction cancellation,
// polled between cell-write batches.
func BuildLinearScanCtx(ctx context.Context, f field.Field, pager *storage.Pager) (*LinearScan, error) {
	return BuildLinearScanWith(ctx, f, pager, LinearScanOptions{})
}

// BuildLinearScanWith is BuildLinearScanCtx with the full option set.
func BuildLinearScanWith(ctx context.Context, f field.Field, pager *storage.Pager, opts LinearScanOptions) (*LinearScan, error) {
	heap, rids, sc, _, err := writeCells(ctx, f, pager, identityOrder(f), resolveSidecarCodec(opts.NoSidecar, opts.Codec))
	if err != nil {
		return nil, err
	}
	ix := &valueIndex{method: MethodLinearScan, pager: pager, heap: heap, rids: rids, sidecar: sc, cells: f.NumCells()}
	// LinearScan has no derived index structure: its whole MVCC state is the
	// storage epoch.
	return &LinearScan{newExecutor(ix, &state{epoch: pager.CurrentEpoch()})}, nil
}

// sidecarCandidates is LinearScan's filter with a sidecar: one sequential
// pass over the packed interval pages tests every cell, and the survivors'
// positions ascend — so the refinement reads only the heap pages holding
// survivors and folds the answer in exactly the order the full scan
// produces, byte-identical to heapCandidates' Result.
func (ix *valueIndex) sidecarCandidates(_ *state, pr *probe) error {
	pr.begin(obs.PhaseSidecar)
	var scanErr error
	err := ix.sidecar.ScanRange(pr.qc, 0, ix.cells, func(base int, lo, hi []float64) bool {
		pr.pos = field.FilterIntervals(pr.pos, int32(base), lo, hi, pr.q.Lo, pr.q.Hi)
		scanErr = pr.ctx.Err()
		return scanErr == nil
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	pr.fetched = ix.cells
	pr.sidecarReads = pr.end().Reads
	return nil
}

// heapCandidates is the filter of a scan without a sidecar (and the I-Auto
// planner's scan path): there is no filter step, the whole heap is one run and
// the refinement tests every record.
func (ix *valueIndex) heapCandidates(_ *state, pr *probe) error {
	if n := ix.heap.NumPages(); n > 0 {
		pr.runs = []pageRun{{first: 0, last: n - 1}}
	}
	return nil
}
