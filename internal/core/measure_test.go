package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// withoutGeometry is r as the measure sink answers it: a copy with Regions and
// Isolines cleared.
func withoutGeometry(r *Result) *Result {
	m := *r
	m.Regions, m.Isolines = nil, nil
	return &m
}

// sameMeasure asserts that got is want without its geometry, Area and
// MatchedCellArea bit for bit, and that want's counts are its geometry's.
func sameMeasure(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if want.RegionCount != len(want.Regions) || want.IsolineCount != len(want.Isolines) {
		t.Fatalf("%s: geometry result counts %d regions, %d isolines; holds %d, %d", label,
			want.RegionCount, want.IsolineCount, len(want.Regions), len(want.Isolines))
	}
	if got.Regions != nil || got.Isolines != nil {
		t.Fatalf("%s: measure result holds %d regions, %d isolines", label, len(got.Regions), len(got.Isolines))
	}
	if math.Float64bits(got.Area) != math.Float64bits(want.Area) ||
		math.Float64bits(got.MatchedCellArea) != math.Float64bits(want.MatchedCellArea) {
		t.Fatalf("%s: measured area %v / %v, geometry %v / %v", label, got.Area, got.MatchedCellArea, want.Area, want.MatchedCellArea)
	}
	if !reflect.DeepEqual(got, withoutGeometry(want)) {
		t.Fatalf("%s: measured %+v, geometry %+v", label, withoutGeometry(got), withoutGeometry(want))
	}
}

// TestMeasureIdentity: over every buildable row of the build matrix, on a grid
// and on a TIN, at one worker and four, the measure sink answers the geometry
// query's Result with Regions and Isolines nil and nothing else different — I/O
// included, areas bit for bit, zero-width and empty queries too; a batch mixing
// measure and geometry members answers each member as its solo call; and an
// aggregate's exact fallback, which measures, is the AggregateResult the
// geometry pipeline's Result gives.
func TestMeasureIdentity(t *testing.T) {
	ctx := context.Background()
	for name, f := range map[string]field.Field{"grid": testDEM(t, 64, 0.7), "tin": testTIN(t, 900)} {
		queries := tiledTestQueries(f)
		vr := f.ValueRange()
		queries = append(queries, vr, geom.Interval{Lo: vr.Lo, Hi: vr.Lo})
		members := make([]BatchQuery, 0, 2*len(queries))
		for i, q := range queries {
			members = append(members, BatchQuery{Query: q, Measure: i%2 == 0}, BatchQuery{Query: q, Measure: i%2 == 1})
		}
		for _, row := range buildMatrix(f) {
			if !row.buildable() {
				continue
			}
			t.Run(name+"/"+row.name, func(t *testing.T) {
				idx, err := buildIx(f, newPager(), row.opts)
				if err != nil {
					t.Fatal(err)
				}
				fallbacks := 0
				for _, workers := range []int{1, 4} {
					idx.SetWorkers(workers)
					solo := func(bq BatchQuery) *Result {
						res, err := idx.query(ctx, bq.Query, bq.Measure)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					for _, q := range queries {
						label := fmt.Sprintf("workers=%d %v", workers, q)
						sameMeasure(t, label, solo(BatchQuery{Query: q, Measure: true}), solo(BatchQuery{Query: q}))
					}
					batch, _ := idx.QueryBatch(members)
					for i, bq := range members {
						label := fmt.Sprintf("workers=%d batch member %d %v measure=%v", workers, i, bq.Query, bq.Measure)
						if batch[i].Err != nil {
							t.Fatalf("%s: %v", label, batch[i].Err)
						}
						if want := solo(bq); !reflect.DeepEqual(batch[i].Res, want) {
							t.Fatalf("%s: %+v, solo %+v", label, withoutGeometry(batch[i].Res), withoutGeometry(want))
						}
					}
					for _, q := range aggregateQueries(f, 35)[:8] {
						label := fmt.Sprintf("workers=%d aggregate %v", workers, q)
						got, err := idx.AggregateContext(ctx, q, 0)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Fallback {
							continue // composed from the partitions' summaries
						}
						fallbacks++
						// The summary probe's I/O, where the store has a summary:
						// what an accepted estimate costs.
						var probe storage.Stats
						if idx.sumPages > 0 {
							est, err := idx.AggregateContext(ctx, q, math.Inf(1))
							if err != nil {
								t.Fatal(err)
							}
							probe = est.IO
						}
						geo := solo(BatchQuery{Query: q})
						want := exactToResult(q, 0, geo, idx.cells, got.TotalArea)
						want.TotalCells, want.Fallback, want.IO = got.TotalCells, true, probe.Add(geo.IO)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: exact fallback %+v, from the geometry pipeline %+v", label, got, want)
						}
					}
				}
				if fallbacks == 0 {
					t.Fatal("no aggregate fell back to the exact pipeline; the case is vacuous")
				}
			})
		}
	}
}
