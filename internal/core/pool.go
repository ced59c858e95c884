package core

import (
	"context"
	"sync"
	"sync/atomic"

	"fielddb/internal/storage"
)

// parallelDo runs fn(i) for every i in [0, n) on a bounded pool of at most
// workers goroutines and returns the first error (by lowest index). With
// workers <= 1 it degenerates to a plain loop on the calling goroutine, so
// single-threaded paths pay no synchronization cost.
//
// Work items must be independent: the refinement step uses one item per
// subfield cell run, index construction one item per subfield.
func parallelDo(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelDoCtx is parallelDo with a cancellation poll before every work
// item: once ctx is canceled, remaining items return ctx.Err() without
// starting, so a mid-refinement (or mid-construction) cancel drains the pool
// promptly. Items already running finish normally — parallelDo always joins
// its workers, so no goroutine outlives the call.
func parallelDoCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return parallelDo(workers, n, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	})
}

// clampWorkers normalizes a Workers option: values below 1 mean
// single-threaded.
func clampWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// batchScratch pools the per-batch demux state — per-member survivor
// positions, query-bound columns, run lists, coverage flags — the way
// probePool pools solo-query buffers: the slices grow to
// the batch's size and survivor counts, so steady-state batch execution
// allocates nothing for its demux machinery beyond what the member queries
// would have allocated solo (asserted by TestBatchAllocs).
var batchScratch = sync.Pool{New: func() any { return new(batchBuf) }}

type batchBuf struct {
	pos  [][]int32 // per-member survivor/candidate positions
	qlo  []float64 // per-member query bounds (NaN marks a dead member)
	qhi  []float64
	cov  []bool                // per-member page-coverage flags (run-based demux)
	runs []pageRun             // union page-index runs
	prs  []physRun             // union PageID runs
	cols storage.ColumnScratch // the shared sidecar pass's scratch
}

func getBatchBuf(k int) *batchBuf {
	b := batchScratch.Get().(*batchBuf)
	for len(b.pos) < k {
		b.pos = append(b.pos, nil)
	}
	for i := 0; i < k; i++ {
		b.pos[i] = b.pos[i][:0]
	}
	if cap(b.qlo) < k {
		b.qlo = make([]float64, k)
		b.qhi = make([]float64, k)
		b.cov = make([]bool, k)
	}
	b.qlo, b.qhi, b.cov = b.qlo[:k], b.qhi[:k], b.cov[:k]
	b.runs = b.runs[:0]
	b.prs = b.prs[:0]
	return b
}

func putBatchBuf(b *batchBuf) { batchScratch.Put(b) }
