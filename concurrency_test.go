package fielddb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// TestConcurrentMixedQueriesStats hammers one DB from 32 goroutines with a
// mix of every facade query kind and checks the accounting invariant: the
// pager totals grow by exactly the sum of the per-query statistics, for the
// value store (value queries and the cell fetches of point queries) and the
// spatial tree's pager (its descents) independently. Run with -race this is
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
			baseSp := db.SpatialIOStats()

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

			// A point query returns its two steps summed; its trace says which
			// pager served which.
			if split.tree.Add(split.cell) != sumPt {
				t.Errorf("point-query spans %+v + %+v != the stats the queries returned %+v", split.tree, split.cell, sumPt)
			}
			if got, want := db.IOStats().Sub(baseVal), sumVal.Add(split.cell); got != want {
				t.Errorf("value store totals %+v != sum of per-query stats %+v", got, want)
			}
			if got := db.SpatialIOStats().Sub(baseSp); got != split.tree {
				t.Errorf("spatial pager totals %+v != sum of the tree descents %+v", got, split.tree)
			}
			if sumVal.Reads == 0 || split.tree.Reads == 0 || split.cell.Reads == 0 {
				t.Fatalf("workload did no I/O: value %+v, tree %+v, cells %+v", sumVal, split.tree, split.cell)
			}
		})
	}
}

// TestParallelRefinementDeterministic checks the acceptance bar for the
// worker pool: on a refinement-heavy query, Workers = 8 must return the very
// Result of the sequential execution — byte-identical regions, the same area,
// matched-cell area and per-query I/O statistics — and the same exact
// aggregate. A DEM's cells all have one area, so the order MatchedCellArea is
// summed in only shows on the TIN.
func TestParallelRefinementDeterministic(t *testing.T) {
	dem, err := TerrainDEM(256, 42)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NoiseTIN(3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]Field{"dem": dem, "tin": tn} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ctx := context.Background()
			vr := f.ValueRange()
			queries := [][2]float64{
				{vr.Lo + vr.Length()*0.30, vr.Lo + vr.Length()*0.55}, // wide: many runs
				{vr.Lo + vr.Length()*0.48, vr.Lo + vr.Length()*0.52},
				{vr.Lo + vr.Length()*0.10, vr.Lo + vr.Length()*0.12},
			}
			for _, q := range queries {
				db.SetWorkers(1)
				seq, err := db.ValueQuery(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				seqAgg, err := db.ApproxAggregateContext(ctx, q[0], q[1], 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				db.SetWorkers(8)
				par, err := db.ValueQuery(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				parAgg, err := db.ApproxAggregateContext(ctx, q[0], q[1], 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq.Regions, par.Regions) {
					t.Errorf("query %v: parallel regions differ from sequential", q)
				}
				if seq.Area != par.Area {
					t.Errorf("query %v: area %v (seq) != %v (par)", q, seq.Area, par.Area)
				}
				if seq.MatchedCellArea != par.MatchedCellArea {
					t.Errorf("query %v: matched-cell area %v (seq) != %v (par)", q, seq.MatchedCellArea, par.MatchedCellArea)
				}
				if !parAgg.Fallback || seqAgg.Area != parAgg.Area || parAgg.Area != seq.MatchedCellArea {
					t.Errorf("query %v: exact aggregate area %v (seq) != %v (par), matched-cell area %v (fallback %v)",
						q, seqAgg.Area, parAgg.Area, seq.MatchedCellArea, parAgg.Fallback)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("query %v: parallel result differs from sequential (counters %d/%d/%d vs %d/%d/%d, IO %+v vs %+v)", q,
						seq.CandidateGroups, seq.CellsFetched, seq.CellsMatched, par.CandidateGroups, par.CellsFetched, par.CellsMatched, seq.IO, par.IO)
				}
				if seq.CellsMatched == 0 {
					t.Errorf("query %v matched nothing; not a refinement test", q)
				}
			}
		})
	}
}
