package fielddb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// TestConcurrentMixedQueriesStats hammers one DB from 32 goroutines with a
// mix of every facade query kind and checks the accounting invariant: the
// store's totals grow by exactly the sum of the per-query statistics — value
// queries and the cell fetches of point queries, whose filter, the lattice's
// arithmetic, reads nothing. Run with -race this is
// also the concurrency smoke test for the whole query path — once plain, once
// through the BatchWindow slot gate, where value queries run as groups of one,
// handed-over groups and expired groups as the scheduler has it.
func TestConcurrentMixedQueriesStats(t *testing.T) {
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			dem, err := TerrainDEM(64, 42)
			if err != nil {
				t.Fatal(err)
			}
			split := &pagerSplit{}
			db, err := Open(dem, Options{Workers: 4, BatchWindow: window, Tracer: split})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			vr := dem.ValueRange()
			b := dem.Bounds()
			baseVal := db.IOStats()

			var (
				mu     sync.Mutex
				sumVal storage.Stats
				sumPt  storage.Stats
			)
			const goroutines = 32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for it := 0; it < 8; it++ {
						var val, pt storage.Stats
						switch it % 4 {
						case 0:
							lo := vr.Lo + vr.Length()*rng.Float64()*0.8
							hi := lo + vr.Length()*(0.05+0.2*rng.Float64())
							res, err := db.ValueQuery(lo, hi)
							if err != nil {
								t.Error(err)
								return
							}
							val = res.IO
						case 1:
							p := geom.Pt(
								b.Min.X+rng.Float64()*b.Width(),
								b.Min.Y+rng.Float64()*b.Height(),
							)
							// A point outside every cell is fine; its reads count too.
							_, st, _ := db.PointQueryStatsContext(ctx, p)
							pt = st
						case 2:
							level := vr.Lo + vr.Length()*(0.2+0.6*rng.Float64())
							cr, err := db.ContourMapContext(ctx, level)
							if err != nil {
								t.Error(err)
								return
							}
							val = cr.IO
						case 3:
							lo := vr.Lo + vr.Length()*rng.Float64()*0.5
							ar, err := db.ApproxValueQueryContext(ctx, lo, lo+vr.Length()*0.1)
							if err != nil {
								t.Error(err)
								return
							}
							val = ar.IO
						}
						mu.Lock()
						sumVal = sumVal.Add(val)
						sumPt = sumPt.Add(pt)
						mu.Unlock()
					}
				}(int64(g) + 1)
			}
			wg.Wait()

			// A point query's reads are its cell fetch: its filter, the
			// lattice's arithmetic, reads nothing.
			if split.filter != (storage.Stats{}) || split.cell != sumPt {
				t.Errorf("point-query spans: filter %+v, fetch %+v; the queries returned %+v", split.filter, split.cell, sumPt)
			}
			if got, want := db.IOStats().Sub(baseVal), sumVal.Add(split.cell); got != want {
				t.Errorf("value store totals %+v != sum of per-query stats %+v", got, want)
			}
			if sumVal.Reads == 0 || split.cell.Reads == 0 {
				t.Fatalf("workload did no I/O: value %+v, cells %+v", sumVal, split.cell)
			}
		})
	}
}

// atLeastProcs raises GOMAXPROCS to n for the rest of the test: a query fans
// out only on idle cores, so a test that wants it to fans out on n of them on
// any machine.
func atLeastProcs(t *testing.T, n int) {
	if procs := runtime.GOMAXPROCS(0); procs < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
}

// TestParallelRefinementDeterministic: the default Workers reaches the engine
// through the facade — on a refinement-heavy query, a database opened with
// defaults fans out on every idle core (eight here, on any machine) and returns
// the very Result of one opened with Workers: 1, I/O included, and the same
// exact aggregate and measure. (The engine's own worker identity, on every
// configuration, is FuzzEngineProgram's to check.)
func TestParallelRefinementDeterministic(t *testing.T) {
	atLeastProcs(t, 8)
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NoiseTIN(800, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]Field{"dem": dem, "tin": tn} {
		t.Run(name, func(t *testing.T) {
			vr := f.ValueRange()
			lo, hi := vr.Lo+vr.Length()*0.30, vr.Lo+vr.Length()*0.55 // wide: many runs
			var res, measure [2]*Result
			var agg [2]*AggregateResult
			for i, opts := range []Options{{Workers: 1}, {}} {
				db, err := Open(f, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				ctx := context.Background()
				if res[i], err = db.ValueQuery(lo, hi); err != nil {
					t.Fatal(err)
				}
				if measure[i], err = db.ValueMeasureContext(ctx, lo, hi); err != nil {
					t.Fatal(err)
				}
				if agg[i], err = db.ApproxAggregateContext(ctx, lo, hi, 1e-12); err != nil {
					t.Fatal(err)
				}
				if fanned := db.Metrics().Engine.WorkerItems > 0; fanned != (i == 1) {
					t.Fatalf("Options %+v: fanned out %v", opts, fanned)
				}
			}
			if res[0].CellsMatched == 0 || !reflect.DeepEqual(res[0], res[1]) || !reflect.DeepEqual(measure[0], measure[1]) {
				t.Errorf("default answers %d cells, IO %+v; Workers: 1 %d, %+v", res[1].CellsMatched, res[1].IO, res[0].CellsMatched, res[0].IO)
			}
			if !agg[1].Fallback || !reflect.DeepEqual(agg[0], agg[1]) || agg[1].Area != res[0].MatchedCellArea {
				t.Errorf("exact aggregate %+v by default, %+v at Workers: 1, matched-cell area %v", agg[1], agg[0], res[0].MatchedCellArea)
			}
		})
	}
}
