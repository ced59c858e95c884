package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"fielddb/internal/storage"
)

// parallelDo runs fn(w, i) for every i in [0, n) on a bounded pool of at most
// workers goroutines, w in [0, workers) naming the one running item i (the
// calling goroutine is 0), and returns the first error (by lowest index). ctx
// is polled before every item: once it is canceled the remaining items return
// its error without starting, so a mid-refinement (or mid-construction)
// cancel drains the pool promptly, and the pool always joins its workers, so
// no goroutine outlives the call. With workers <= 1 it is a plain loop on the
// calling goroutine, so single-threaded paths pay no synchronization cost;
// otherwise it allocates no more than its goroutines. Work items must be
// independent: the refinement step uses one item per block of page runs or
// per residual tile, each refined into worker w's stream; index construction
// one per subfield.
func parallelDo(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	p := workPools.Get().(*workPool)
	p.ctx, p.fn, p.n = ctx, fn, n
	p.next.Store(0)
	p.errs = append(p.errs[:0], make([]error, n)...)
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			p.work(w)
		}()
	}
	p.work(0)
	p.wg.Wait()
	var err error
	for _, e := range p.errs {
		if e != nil {
			err = e
			break
		}
	}
	clear(p.errs)
	p.ctx, p.fn = nil, nil
	workPools.Put(p)
	return err
}

// workPool is the state of one parallel parallelDo call, pooled: the items'
// errors and the counter its workers take items from.
type workPool struct {
	ctx  context.Context
	fn   func(w, i int) error
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
	errs []error
}

var workPools = sync.Pool{New: func() any { return new(workPool) }}

func (p *workPool) work(w int) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if p.errs[i] = p.ctx.Err(); p.errs[i] == nil {
			p.errs[i] = p.fn(w, i)
		}
	}
}

// clampWorkers normalizes a Workers option: values below 1 mean
// single-threaded.
func clampWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// executing counts the value queries running in this process: solo and
// snapshot queries, aggregates' exact fallbacks and shared-scan batches, each
// holding a core. It is process-wide, not per store, because the cores it is
// weighed against are.
var executing atomic.Int32

// fanout returns how many workers n independent items of one query scatter
// on: no more than its bound, workers, nor than n, nor than the cores the
// process's other executing value queries leave idle. 1 means the caller runs
// them in order on its own context — no goroutine, no fork, nothing allocated.
// A lone query thus takes every idle core, and a loaded process stays one core
// per query.
func fanout(workers, n int) int {
	if workers = min(workers, n); workers <= 1 {
		return 1
	}
	idle := runtime.GOMAXPROCS(0) - int(executing.Load()) + 1
	return max(1, min(workers, idle))
}

// cutBlocks cuts runs into at most w contiguous blocks of about equal page
// count and returns their bounds: block b is runs[bounds[b]:bounds[b+1]].
// Block b ends before the first run whose midpoint lies past b+1 shares of
// the pages, so every block holds at least one run, and a run longer than a
// share makes fewer, longer blocks rather than empty ones.
func cutBlocks(bounds []int, runs []pageRun, w int) []int {
	total := 0
	for _, r := range runs {
		total += r.last - r.first + 1
	}
	bounds = append(bounds[:0], 0)
	pages := 0
	for i, r := range runs[:len(runs)-1] {
		pages += r.last - r.first + 1
		next := runs[i+1].last - runs[i+1].first + 1
		if b := len(bounds); b < w && (2*pages+next)*w >= 2*total*b {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, len(runs))
}

// batchScratch pools the per-batch demux state — per-member survivor
// positions, query-bound columns, run lists, coverage flags, streams and
// partials — the way probePool pools solo-query buffers: the slices grow to
// the batch's size and survivor counts, so steady-state batch execution
// allocates nothing for its demux machinery beyond what the member queries
// would have allocated solo (asserted by TestBatchAllocs).
var batchScratch = sync.Pool{New: func() any { return new(batchBuf) }}

type batchBuf struct {
	pos   [][]int32   // per-member survivor/candidate positions
	runs  [][]pageRun // per-member merged page-index runs
	qlo   []float64   // per-member query bounds (NaN marks a dead member)
	qhi   []float64
	cov   []bool                // per-member page-coverage flags (run-based demux)
	union []pageRun             // union page-index runs
	prs   []physRun             // union PageID runs
	cols  storage.ColumnScratch // the shared sidecar pass's scratch
	// Per member its stream and, in a tiled store, its partials in tile
	// order.
	streams []stream
	parts   [][]partial
}

func getBatchBuf(k int) *batchBuf {
	b := batchScratch.Get().(*batchBuf)
	for len(b.pos) < k {
		b.pos = append(b.pos, nil)
		b.runs = append(b.runs, nil)
		b.streams = append(b.streams, stream{})
		b.parts = append(b.parts, nil)
	}
	for i := 0; i < k; i++ {
		b.pos[i], b.runs[i], b.parts[i] = b.pos[i][:0], b.runs[i][:0], b.parts[i][:0]
	}
	if cap(b.qlo) < k {
		b.qlo = make([]float64, k)
		b.qhi = make([]float64, k)
		b.cov = make([]bool, k)
	}
	b.qlo, b.qhi, b.cov = b.qlo[:k], b.qhi[:k], b.cov[:k]
	b.union = b.union[:0]
	b.prs = b.prs[:0]
	return b
}

func putBatchBuf(b *batchBuf) {
	for i := range b.streams {
		b.streams[i].recycle()
		clear(b.parts[i])
	}
	batchScratch.Put(b)
}
