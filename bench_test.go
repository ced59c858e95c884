// Benchmarks regenerating the paper's figures, one per table/figure.
//
// Each benchmark builds the figure's dataset and indexes once, then times
// the query pipeline per method and Qinterval as sub-benchmarks, e.g.:
//
//	go test -bench 'BenchmarkFig8a' -benchmem
//
// reports ns/op per (method, Qinterval) cell of Figure 8a. Datasets default
// to a 1/4-linear-scale of the paper's (set -full via fieldbench for the
// real sizes); the *shapes* — who wins and by what factor — match the paper
// at every scale. The cmd/fieldbench tool renders the same experiments as
// complete series tables and CSV.
package fielddb_test

import (
	"context"
	"fmt"
	"testing"

	"fielddb"

	"fielddb/internal/bench"
	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// benchFigure runs one figure: for every index spec and Qinterval, a
// sub-benchmark cycling through that workload's queries.
func benchFigure(b *testing.B, exp bench.Experiment) {
	f, err := exp.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	vr := f.ValueRange()
	for _, spec := range exp.Specs {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.Build(f, pager)
		if err != nil {
			b.Fatal(err)
		}
		for _, qi := range exp.QIntervals {
			queries := workload.Queries(vr, qi, 64, exp.Seed+int64(qi*1e6))
			b.Run(fmt.Sprintf("%s/Qinterval=%.2f", spec.Label, qi), func(b *testing.B) {
				b.ReportAllocs()
				var simNs, pages float64
				for i := 0; i < b.N; i++ {
					res, err := idx.Query(queries[i%len(queries)])
					if err != nil {
						b.Fatal(err)
					}
					simNs += float64(res.IO.SimElapsed.Nanoseconds())
					pages += float64(res.IO.Reads)
				}
				b.ReportMetric(simNs/float64(b.N), "simns/op")
				b.ReportMetric(pages/float64(b.N), "pages/op")
			})
		}
	}
}

// benchScale is the dataset scale for benchmarks: small enough that a full
// -bench=. sweep finishes in minutes.
func benchScale() bench.Scale { return bench.Scale{} }

// BenchmarkValueRange is the storage read-path suite behind
// BENCH_BASELINE.json: value-range queries at the paper's three selectivity
// regimes (bench.Selectivities) for LinearScan, I-All and I-Hilbert, plus the
// parallel refinement path (I-Hilbert at Workers 4), the tiled geometry path
// in memory (LinearScan in 64-cell tiles over packed sidecars, at Workers 1
// and 4) and — for LinearScan and I-Hilbert — the same queries without
// geometry (".../measure", the measure sink: where the paper's filter
// ordering shows on the wall clock once band polygons stop dominating). Run
// with
//
//	go test -bench BenchmarkValueRange -benchmem
//
// and compare ns/op and B/op against the checked-in baseline. The dataset and
// seeds are fixed so sub-benchmark names stay stable across PRs.
func BenchmarkValueRange(b *testing.B) {
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		b.Fatal(err)
	}
	vr := f.ValueRange()
	run := func(label string, eng core.Engine, workerCounts []int, measures bool) {
		for _, workers := range workerCounts {
			eng.SetWorkers(workers)
			for _, sel := range bench.Selectivities {
				queries := workload.Queries(vr, sel, 64, 4217+int64(sel*1e6))
				name := fmt.Sprintf("%s/sel=%.2f", label, sel)
				if workers > 1 {
					name += fmt.Sprintf("/workers=%d", workers)
				}
				b.Run(name, func(b *testing.B) { benchQueries(b, eng.QueryContext, queries) })
				if measures && workers == 1 {
					b.Run(name+"/measure", func(b *testing.B) { benchQueries(b, eng.MeasureContext, queries) })
				}
			}
		}
	}
	for _, spec := range bench.ValueRangeSpecs() {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.Build(f, pager)
		if err != nil {
			b.Fatal(err)
		}
		workerCounts := []int{1}
		if spec.ParallelRefine {
			workerCounts = append(workerCounts, 4)
		}
		measures := spec.Label == string(core.MethodLinearScan) || spec.Label == string(core.MethodIHilbert)
		run(spec.Label, idx.(core.Engine), workerCounts, measures)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
	tiled, err := core.Build(context.Background(), f, pager, core.BuildOptions{Method: core.MethodLinearScan, TileSide: 64, Codec: storage.SidecarCodecPacked})
	if err != nil {
		b.Fatal(err)
	}
	run("Tiled-LinearScan/packed", tiled, []int{1, 4}, false)
}

// benchQueries times query over the rotation, reporting simulated disk time
// and pages per query beside ns/op.
func benchQueries(b *testing.B, query func(context.Context, geom.Interval) (*core.Result, error), queries []geom.Interval) {
	b.ReportAllocs()
	var simNs, pages float64
	for i := 0; i < b.N; i++ {
		res, err := query(context.Background(), queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		simNs += float64(res.IO.SimElapsed.Nanoseconds())
		pages += float64(res.IO.Reads)
	}
	b.ReportMetric(simNs/float64(b.N), "simns/op")
	b.ReportMetric(pages/float64(b.N), "pages/op")
}

// BenchmarkValueRangeConcurrent is the concurrent-workload suite behind the
// "Concurrent/*" rows of BENCH_BASELINE.json: the same specs, terrain, and
// 64-query rotations as BenchmarkValueRange, but executed as shared-scan
// batches of bench.ConcurrentClients members. The reported pages/op and
// simns/op are *physical* per-query costs — what the batch actually read
// divided by the member count — and qps_sim is queries per simulated-disk
// second, the throughput metric the bench-compare gate watches (higher is
// better). Per-member results stay byte-identical to solo execution.
func BenchmarkValueRangeConcurrent(b *testing.B) {
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		b.Fatal(err)
	}
	vr := f.ValueRange()
	for _, spec := range bench.ValueRangeSpecs() {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.Build(f, pager)
		if err != nil {
			b.Fatal(err)
		}
		bq := idx.(core.Engine)
		for _, sel := range bench.Selectivities {
			queries := workload.Queries(vr, sel, 64, 4217+int64(sel*1e6))
			name := fmt.Sprintf("Concurrent/%s/sel=%.2f/clients=%d", spec.Label, sel, bench.ConcurrentClients)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var phys storage.Stats
				members := make([]core.BatchQuery, bench.ConcurrentClients)
				nq := 0
				for i := 0; i < b.N; i++ {
					off := (i * bench.ConcurrentClients) % len(queries)
					for j := range members {
						members[j] = core.BatchQuery{Query: queries[off+j]}
					}
					results, st := bq.QueryBatch(members)
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
					phys = phys.Add(st.Physical)
					nq += len(members)
				}
				n := float64(nq)
				b.ReportMetric(float64(phys.SimElapsed.Nanoseconds())/n, "simns/op")
				b.ReportMetric(float64(phys.Reads)/n, "pages/op")
				if phys.SimElapsed > 0 {
					b.ReportMetric(n/phys.SimElapsed.Seconds(), "qps_sim")
				}
			})
		}
	}
}

// BenchmarkFig8a regenerates Figure 8a: terrain DEM, LinearScan vs I-All vs
// I-Hilbert across Qinterval 0–0.1.
func BenchmarkFig8a(b *testing.B) {
	exp := bench.Figure8a(benchScale())
	exp.Dataset = func() (field.Field, error) { return workload.Terrain(128, 4217) }
	benchFigure(b, exp)
}

// BenchmarkFig8b regenerates Figure 8b: urban-noise TIN.
func BenchmarkFig8b(b *testing.B) {
	exp := bench.Figure8b(benchScale())
	exp.Dataset = func() (field.Field, error) { return workload.NoiseTIN(1200, 907) }
	benchFigure(b, exp)
}

// BenchmarkFig11 regenerates Figure 11: the fractal-roughness sweep
// (a: H=0.1, b: H=0.3, c: H=0.6, d: H=0.9).
func BenchmarkFig11(b *testing.B) {
	for _, h := range workload.HSweep {
		h := h
		b.Run(fmt.Sprintf("H=%.1f", h), func(b *testing.B) {
			exp := bench.Figure11(h, benchScale())
			exp.Dataset = func() (field.Field, error) { return workload.FractalDEM(128, h, 1100+int64(h*10)) }
			benchFigure(b, exp)
		})
	}
}

// BenchmarkFig12b regenerates Figure 12b: the monotonic field w = x + y.
func BenchmarkFig12b(b *testing.B) {
	exp := bench.Figure12b(benchScale())
	exp.Dataset = func() (field.Field, error) { return workload.Monotonic(128) }
	benchFigure(b, exp)
}

// BenchmarkRelatedIPIndex compares the related-work row-wise IP-index
// (§2.3) against I-Hilbert and LinearScan.
func BenchmarkRelatedIPIndex(b *testing.B) {
	exp := bench.RelatedIPIndex(benchScale())
	exp.Dataset = func() (field.Field, error) { return workload.Terrain(128, 4217) }
	benchFigure(b, exp)
}

// BenchmarkBuild measures index construction per method on the terrain
// dataset (build cost is the price of the paper's query speedups).
func BenchmarkBuild(b *testing.B) {
	f, err := workload.Terrain(128, 4217)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []core.Method{core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert} {
		spec := bench.SpecsForMethods(m)[0]
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 0)
				if _, err := spec.Build(f, pager); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointQuery measures the conventional Q1 query (§2.2.1): a DEM
// locates the point by grid arithmetic and reads its cells.
func BenchmarkPointQuery(b *testing.B) {
	f, err := workload.Terrain(128, 4217)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	bounds := f.Bounds()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := bounds.Min.X + float64(i%97)/97*bounds.Width()
		y := bounds.Min.Y + float64(i%89)/89*bounds.Height()
		if _, err := db.PointQuery(pt(x, y)); err != nil {
			b.Fatal(err)
		}
	}
}

// pt keeps the benchmark imports tidy.
func pt(x, y float64) geom.Point { return geom.Pt(x, y) }

// BenchmarkContours measures isoline extraction + assembly through the
// value index (extension E4).
func BenchmarkContours(b *testing.B) {
	dem, err := fielddb.TerrainDEM(128, 42)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fielddb.Open(dem, fielddb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	vr := dem.ValueRange()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		level := vr.Lo + (0.2+0.6*float64(i%29)/29)*vr.Length()
		if _, err := db.Contours(level); err != nil {
			b.Fatal(err)
		}
	}
}
