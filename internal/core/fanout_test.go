package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fielddb/internal/geom"
	"fielddb/internal/obs"
)

// atLeastProcs raises GOMAXPROCS to n for the rest of the test, so that the
// idle-core rule of fanout grants a query n workers on any machine.
func atLeastProcs(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestCutBlocks: blocks are contiguous, non-empty, at most w, and balanced by
// page count — a run longer than a share ends a block early rather than
// leaving one empty.
func TestCutBlocks(t *testing.T) {
	runs := func(pages ...int) []pageRun {
		var out []pageRun
		next := 0
		for _, n := range pages {
			out = append(out, pageRun{next, next + n - 1})
			next += n + 1 // merged runs are never adjacent
		}
		return out
	}
	for _, c := range []struct {
		name  string
		runs  []pageRun
		w     int
		want  []int
		pages []int // per block
	}{
		{"even", runs(1, 1, 1, 1), 2, []int{0, 2, 4}, []int{2, 2}},
		{"a worker a run", runs(3, 2, 3), 4, []int{0, 1, 2, 3}, []int{3, 2, 3}},
		{"long run first", runs(10, 1), 4, []int{0, 1, 2}, []int{10, 1}},
		{"long run last", runs(1, 1, 100), 2, []int{0, 2, 3}, []int{2, 100}},
		{"long run between", runs(1, 14, 1, 1), 3, []int{0, 1, 2, 4}, []int{1, 14, 2}},
		{"one worker", runs(4, 4, 4), 1, []int{0, 3}, []int{12}},
		{"one run", runs(16), 4, []int{0, 1}, []int{16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := cutBlocks(nil, c.runs, c.w)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("bounds %v, want %v", got, c.want)
			}
			for b := range len(got) - 1 {
				pages := 0
				for _, r := range c.runs[got[b]:got[b+1]] {
					pages += r.last - r.first + 1
				}
				if pages != c.pages[b] {
					t.Fatalf("block %d holds %d pages, want %d", b, pages, c.pages[b])
				}
			}
		})
	}
}

// TestFanoutIdleCores: a query fans out onto the cores the other executing
// queries leave idle, and onto none once GOMAXPROCS queries execute.
func TestFanoutIdleCores(t *testing.T) {
	atLeastProcs(t, 4)
	procs := runtime.GOMAXPROCS(0)
	executing.Add(1) // the query asking
	defer executing.Add(-1)
	if got := fanout(procs+4, 100); got != procs {
		t.Fatalf("a lone query fans out on %d workers, want %d", got, procs)
	}
	if got := fanout(2, 100); got != 2 {
		t.Fatalf("a query bounded at 2 workers fans out on %d", got)
	}
	if got := fanout(procs, 3); got != 3 {
		t.Fatalf("3 items fan out on %d workers", got)
	}
	executing.Add(int32(procs - 2))
	if got := fanout(procs, 100); got != 2 {
		t.Fatalf("with %d queries executing a query fans out on %d workers, want 2", procs-1, got)
	}
	executing.Add(1)
	defer executing.Add(-int32(procs - 1))
	if got := fanout(procs, 100); got != 1 {
		t.Fatalf("with GOMAXPROCS queries executing a query fans out on %d workers", got)
	}
}

// executingCtx records how many value queries were executing whenever a query
// polled it.
type executingCtx struct {
	context.Context
	min, max atomic.Int32
}

func (c *executingCtx) Err() error {
	n := executing.Load()
	if n < c.min.Load() {
		c.min.Store(n)
	}
	if n > c.max.Load() {
		c.max.Store(n)
	}
	return nil
}

// TestQueriesCountAsExecuting: a solo query and a shared-scan batch each count
// as one executing query while they run, and not once they return.
func TestQueriesCountAsExecuting(t *testing.T) {
	e, _, q := fanoutEngine(t)
	for name, run := range map[string]func(ctx context.Context) error{
		"solo": func(ctx context.Context) error {
			_, err := e.QueryContext(ctx, q)
			return err
		},
		"batch": func(ctx context.Context) error {
			results, _ := e.QueryBatch([]BatchQuery{{Ctx: ctx, Query: q}, {Ctx: ctx, Query: q, Measure: true}})
			return errors.Join(results[0].Err, results[1].Err)
		},
	} {
		ctx := &executingCtx{Context: context.Background()}
		ctx.min.Store(math.MaxInt32)
		if err := run(ctx); err != nil {
			t.Fatal(err)
		}
		if ctx.min.Load() != 1 || ctx.max.Load() != 1 || executing.Load() != 0 {
			t.Fatalf("%s: %d to %d queries executing while it ran, %d after", name, ctx.min.Load(), ctx.max.Load(), executing.Load())
		}
	}
}

// fanoutEngine is an I-Hilbert store over a 128² DEM with four workers and a
// metrics registry, and a query of it that selects many page runs.
func fanoutEngine(t *testing.T) (*engine, *obs.Metrics, geom.Interval) {
	t.Helper()
	atLeastProcs(t, 4)
	e, err := buildIx(testDEM(t, 128, 0.7), newPager(), BuildOptions{Method: MethodIHilbert, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	e.SetObserver(obs.Observer{Metrics: m})
	return e, m, geom.Interval{Lo: 40, Hi: 55}
}

// TestBatchesNeverFork: a shared-scan batch, a batch of one and a query
// through the admission gate's free slot all refine on the calling goroutine,
// while the same query alone fans out.
func TestBatchesNeverFork(t *testing.T) {
	e, m, q := fanoutEngine(t)
	members := []BatchQuery{{Query: q}, {Query: geom.Interval{Lo: 50, Hi: 60}, Measure: true}}
	for _, batch := range [][]BatchQuery{members, members[:1]} {
		results, _ := e.QueryBatch(batch)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	gate := NewBatcher(e, time.Hour, nil)
	if _, err := gate.Query(BatchQuery{Ctx: context.Background(), Query: q}); err != nil {
		t.Fatal(err)
	}
	if items := m.Snapshot().WorkerItems; items != 0 {
		t.Fatalf("batched queries forked %d work items", items)
	}
	if _, err := e.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().WorkerItems == 0 {
		t.Fatal("a lone query on four idle cores did not fan out")
	}
}

// TestCanceledFanoutJoins: a fanned-out query canceled at any of its polls —
// before the scatter, as a block starts, mid-block, whichever goroutine polls
// — returns the context's error and leaves no goroutine behind.
func TestCanceledFanoutJoins(t *testing.T) {
	e, m, q := fanoutEngine(t)
	const plenty = 1 << 30
	probe := newCountdownCtx(plenty)
	if _, err := e.QueryContext(probe, q); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().WorkerItems == 0 {
		t.Fatal("the query did not fan out")
	}
	polls := plenty - probe.n.Load()
	base := runtime.NumGoroutine()
	for k := int64(0); k < polls; k += max(1, polls/24) {
		res, err := e.QueryContext(newCountdownCtx(k), q)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("canceled at poll %d of %d: %v, %v", k, polls, res, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("canceled at poll %d: %d goroutines, %d before", k, n, base)
		}
	}
}
