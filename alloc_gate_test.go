//go:build !race

// The race detector instruments allocations and changes their counts, so the
// ceilings only hold in a plain build: `make alloc-gate` runs them.

package fielddb_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// TestAllocCeilings bounds the allocations of one value query on the
// BenchmarkValueRange fixture (256×256 terrain, the sel=0.05 rotation, full
// geometry unless the row measures) for every read path. A query matches a
// few thousand cells, so anything that allocates per cell, per candidate or
// per page blows through its ceiling many times over; what is left grows with
// page runs, tiles and the logarithm of the answer size. Ceilings sit at
// roughly twice the count measured when they were set (in the comments; ten
// at least), to ride out toolchain drift.
func TestAllocCeilings(t *testing.T) {
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		t.Fatal(err)
	}
	const sel = 0.05
	queries := workload.Queries(f.ValueRange(), sel, 64, 4217+int64(sel*1e6))
	specs := map[string]bench.IndexSpec{}
	for _, spec := range bench.ValueRangeSpecs() {
		specs[spec.Label] = spec
	}
	tiled := func(f field.Field, p *storage.Pager) (core.Index, error) {
		return core.Build(context.Background(), f, p, core.BuildOptions{Method: core.MethodLinearScan, TileSide: 64, Codec: storage.SidecarCodecPacked})
	}
	// A stored row runs the tiled store saved to a file and reopened behind a
	// pool of pool pages, so a pool miss is a read of the file.
	stored := func(pool int) func(field.Field, *storage.Pager) (core.Index, error) {
		return func(f field.Field, p *storage.Pager) (core.Index, error) {
			built, err := tiled(f, p)
			if err != nil {
				return nil, err
			}
			path := filepath.Join(t.TempDir(), "stored.fidx")
			if err := built.(core.Engine).SaveFile(path); err != nil {
				return nil, err
			}
			eng, err := core.Open(path, pool)
			if err == nil {
				t.Cleanup(func() { eng.Close() })
			}
			return eng, err
		}
	}
	// The pool=256 rows are the miss path: a pool smaller than one scan, so
	// every query evicts and refills it, and the ceiling bounds what a pool miss
	// allocates — something per run, nothing per page: frames come back off the
	// freelist. A workers=4 row fans out on as many of four cores as are idle.
	measured := map[string]float64{}
	for _, c := range []struct {
		name    string
		build   func(field.Field, *storage.Pager) (core.Index, error)
		pool    int
		workers int
		measure bool
		ceiling float64
	}{
		{"I-Hilbert", specs["I-Hilbert"].Build, 1 << 16, 1, false, 30},                 // 12; 15 at GOMAXPROCS 4
		{"I-Hilbert/workers=4", specs["I-Hilbert"].Build, 1 << 16, 4, false, 30},       // 10; 15
		{"I-Hilbert/measure", specs["I-Hilbert"].Build, 1 << 16, 1, true, 10},          // 1
		{"I-All", specs["I-All"].Build, 1 << 16, 1, false, 20},                         // 8
		{"LinearScan", specs["LinearScan"].Build, 1 << 16, 1, false, 20},               // 8
		{"Tiled-LinearScan", tiled, 1 << 16, 1, false, 20},                             // 9
		{"Tiled-LinearScan/workers=4", tiled, 1 << 16, 4, false, 40},                   // 14; 19
		{"Tiled-LinearScan/measure", tiled, 1 << 16, 1, true, 10},                      // 1
		{"Tiled-LinearScan/pool=256", tiled, 256, 1, false, 25},                        // 11; 12
		{"Tiled-LinearScan/pool=256/workers=4", tiled, 256, 4, false, 50},              // 16; 23
		{"Tiled-LinearScan/stored/pool=256", stored(256), 256, 1, false, 35},           // 14; 17
		{"Tiled-LinearScan/stored/pool=256/workers=4", stored(256), 256, 4, false, 60}, // 20; 29
	} {
		t.Run(c.name, func(t *testing.T) {
			pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, c.pool)
			idx, err := c.build(f, pager)
			if err != nil {
				t.Fatal(err)
			}
			eng := idx.(core.Engine)
			eng.SetWorkers(c.workers)
			got := allocsPerQuery(t, eng, queries, c.measure)
			measured[c.name] = got
			t.Logf("%.0f allocs/query (ceiling %.0f)", got, c.ceiling)
			if got > c.ceiling {
				t.Errorf("%.0f allocs per query, ceiling %.0f", got, c.ceiling)
			}
		})
	}

	// Fanning a query out allocates what the sequential path does, give or
	// take the workers' goroutines: its blocks refine on pooled forks into
	// pooled streams.
	if seq, par := measured["I-Hilbert"], measured["I-Hilbert/workers=4"]; par > seq+8 {
		t.Errorf("a fanned-out query allocates %.0f, a sequential one %.0f (+8 allowance)", par, seq)
	}
	// Reading the pages off a file allocates what reading them off memory does.
	for _, row := range []string{"pool=256", "pool=256/workers=4"} {
		if mem, file := measured["Tiled-LinearScan/"+row], measured["Tiled-LinearScan/stored/"+row]; file > mem+8 {
			t.Errorf("a stored %s query allocates %.0f, an in-memory one %.0f (+8 allowance)", row, file, mem)
		}
	}

	// A value query through the facade as opened by default, which fans out
	// on every idle core.
	t.Run("fielddb.Open/default", func(t *testing.T) {
		const ceiling = 25 // 10; 13 at GOMAXPROCS 4
		db, err := fielddb.Open(f, fielddb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		i := 0
		got := allocsPerRotation(len(queries), func() {
			q := queries[i%len(queries)]
			if _, err := db.ValueQuery(q.Lo, q.Hi); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%.0f allocs/query (ceiling %d)", got, ceiling)
		if got > ceiling {
			t.Errorf("%.0f allocs per default value query, ceiling %d", got, ceiling)
		}
	})

	// The measure sink allocates nothing per matched cell: a rotation matching
	// ten times the cells costs what page runs and the answer's logarithm add,
	// not what its cells would.
	t.Run("I-Hilbert/measure/selectivity", func(t *testing.T) {
		const allowance = 16 // measured: 1 at sel 0.01 and at sel 0.10
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := specs["I-Hilbert"].Build(f, pager)
		if err != nil {
			t.Fatal(err)
		}
		eng := idx.(core.Engine)
		at := func(sel float64) float64 {
			return allocsPerQuery(t, eng, workload.Queries(f.ValueRange(), sel, 64, 4217+int64(sel*1e6)), true)
		}
		at(0.01) // first rotations fill the pool and grow the pooled scratch
		at(0.10)
		narrow, wide := at(0.01), at(0.10)
		t.Logf("%.0f allocs/query at sel 0.01, %.0f at sel 0.10", narrow, wide)
		if wide > narrow+allowance {
			t.Errorf("measure query allocates %.0f at sel 0.10, %.0f at sel 0.01 (+%d allowance)", wide, narrow, allowance)
		}
	})

	// A DEM's point query opens one pooled query context — the cell fetch on
	// the value store; the lattice arithmetic before it reads no page — and
	// decodes one cell; nothing in it grows with the field
	// (TestAllocCeilingsHeap is the gate that catches a point-query tree
	// coming back).
	t.Run("PointQuery", func(t *testing.T) {
		const ceiling = 12 // 6
		db, err := fielddb.Open(f, fielddb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		b := f.Bounds()
		i := 0
		got := testing.AllocsPerRun(256, func() {
			p := geom.Pt(b.Min.X+float64(i%97)/97*b.Width(), b.Min.Y+float64(i%89)/89*b.Height())
			if _, err := db.PointQuery(p); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%.0f allocs/query (ceiling %d)", got, ceiling)
		if got > ceiling {
			t.Errorf("%.0f allocs per point query, ceiling %d", got, ceiling)
		}
	})

	// An idle windowed query takes a free slot and runs the solo path as a
	// group of one: the gate may add the member and result slices of that
	// group and nothing that grows with the query (measured: 11 solo, 14 here).
	t.Run("I-Hilbert/windowed-idle", func(t *testing.T) {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := specs["I-Hilbert"].Build(f, pager)
		if err != nil {
			t.Fatal(err)
		}
		eng := idx.(core.Engine)
		gate := core.NewBatcher(eng, time.Hour, obs.NewMetrics())
		measure := func(query func(context.Context, geom.Interval) (*core.Result, error)) float64 {
			i := 0
			return testing.AllocsPerRun(len(queries), func() {
				if _, err := query(context.Background(), queries[i%len(queries)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
		}
		measure(eng.QueryContext) // a first rotation grows the pooled scratch to size
		solo, windowed := measure(eng.QueryContext), measure(func(ctx context.Context, q geom.Interval) (*core.Result, error) {
			return gate.Query(core.BatchQuery{Ctx: ctx, Query: q})
		})
		t.Logf("%.0f allocs/query solo, %.0f through an idle window", solo, windowed)
		if windowed > solo+8 {
			t.Errorf("idle windowed query allocates %.0f, solo %.0f (+8 allowance)", windowed, solo)
		}
	})
}

// TestAllocCeilingsUpdate bounds what one 16-sample update batch allocates on
// an I-Hilbert store of the 256×256 fixture: the update-load suite's batch,
// after a first one has made the partition's reusable buffers (the cut's
// input). Most of what is left is the summary refit's — its sort and step
// arrays, a few per cell —, then the cut's group list, the hydrated tree copy
// (an array of bounds per node), the tree patch's inserts (a handful each)
// and the staged pages. Re-inserting every group into a fresh tree on a moved
// boundary costs ~275k allocations a batch.
func TestAllocCeilingsUpdate(t *testing.T) {
	const allocCeiling, byteCeiling = 5000, 30 // measured: ~2 400, 15.2 MiB
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		t.Fatal(err)
	}
	var spec bench.IndexSpec
	for _, s := range bench.ValueRangeSpecs() {
		if s.Label == "I-Hilbert" {
			spec = s
		}
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
	idx, err := spec.Build(f, pager)
	if err != nil {
		t.Fatal(err)
	}
	eng := idx.(core.Engine)
	vr := f.ValueRange()
	rng := rand.New(rand.NewSource(4217))
	batch := make([]core.SampleUpdate, 16)
	apply := func() {
		for i := range batch {
			batch[i] = core.SampleUpdate{Sample: rng.Intn(f.NumSamples()), Value: vr.Lo + rng.Float64()*vr.Length()}
		}
		if _, err := eng.ApplyUpdates(context.Background(), f, batch); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 16
	apply()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		apply()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	mib := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	t.Logf("%.0f allocs, %.1f MiB per batch (ceilings %d, %d MiB)", allocs, mib, allocCeiling, byteCeiling)
	if allocs > allocCeiling || mib > byteCeiling {
		t.Errorf("%.0f allocs, %.1f MiB per update batch; ceilings %d, %d MiB", allocs, mib, allocCeiling, byteCeiling)
	}
}

// allocsPerQuery is the mean allocation count of one query of the rotation on
// eng, into the measure sink or with full geometry.
func allocsPerQuery(t *testing.T, eng core.Engine, queries []geom.Interval, measure bool) float64 {
	t.Helper()
	query := eng.QueryContext
	if measure {
		query = eng.MeasureContext
	}
	i := 0
	return allocsPerRotation(len(queries), func() {
		if _, err := query(context.Background(), queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// allocsPerRotation is the mean allocation count of one call of run over a
// rotation of n calls, counted from the same heap state on every row: a
// collection finishes the build's garbage, then one rotation refills the pools
// it emptied, so the collections inside the count come at the same points of
// the rotation whatever the row built before it.
func allocsPerRotation(n int, run func()) float64 {
	runtime.GC()
	for range n {
		run()
	}
	return allocsPerRun(n, run)
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS of 1, under
// which a query would find no idle core to fan out on: the mean allocation
// count of runs calls of f, after one warm-up call.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
