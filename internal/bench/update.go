package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// Update-load suite parameters. Like the query rotations, these are fixed so
// every simulated-disk metric is exactly reproducible run to run.
const (
	// UpdateBatchSize is the number of sample updates per committed batch.
	UpdateBatchSize = 16
	// UpdateBatches is how many batches the pure update-cost rows commit.
	UpdateBatches = 32
	// updateInterleave is the mixed-load cadence: one update batch commits
	// after every updateInterleave queries of the rotation.
	updateInterleave = 8
)

// updateBatch draws one deterministic batch: random samples moved to random
// values inside the field's original range (so the workload exercises cell
// re-encoding and index maintenance without constantly regrouping on range
// explosions — occasional drift-triggered re-cuts still happen and are
// themselves deterministic).
func updateBatch(mf field.Mutable, vr geom.Interval, rng *rand.Rand) []core.SampleUpdate {
	updates := make([]core.SampleUpdate, UpdateBatchSize)
	for i := range updates {
		updates[i] = core.SampleUpdate{
			Sample: rng.Intn(mf.NumSamples()),
			Value:  vr.Lo + rng.Float64()*vr.Length(),
		}
	}
	return updates
}

// UpdateLoadMeasure runs the deterministic live-update suite on the same
// 256×256 terrain as ValueRangeMeasure, for every index spec that supports
// live updates. Two kinds of rows come back:
//
//   - UpdateLoad/<label>/batch=N: the cost of committing update batches on an
//     otherwise idle index. PagesOp counts pages written per batch (copy-on-
//     write overlays plus persisted index nodes), SimNsOp is the staging-read
//     time per batch on the simulated disk, and QPSSim is batches per
//     simulated-disk second.
//   - UpdateLoad/<label>/read/sel=S: the per-query cost of the standard
//     64-query rotation while update batches commit every few queries —
//     the reader-visible price of MVCC (overlay lookups, refreshed trees,
//     epoch bookkeeping). QPSSim is queries per simulated-disk second of
//     reader time.
//
// Everything is single-threaded and seeded; the rows gate regressions the
// same way the solo and concurrent suites do.
func UpdateLoadMeasure() (map[string]Row, error) {
	ctx := context.Background()
	rows := map[string]Row{}
	for _, spec := range ValueRangeSpecs() {
		// Pure update-cost rows. A fresh terrain per cell: batches mutate
		// the field, and each row must start from the same state.
		f, err := FixtureTerrain(0, 0)
		if err != nil {
			return nil, err
		}
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.Build(f, pager)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label, err)
		}
		up := idx.(core.Engine)
		vr := f.ValueRange()
		rng := rand.New(rand.NewSource(FixtureSeed))
		name := fmt.Sprintf("UpdateLoad/%s/batch=%d", spec.Label, UpdateBatchSize)
		var pages float64
		var sim time.Duration
		start := time.Now()
		for b := 0; b < UpdateBatches; b++ {
			res, err := up.ApplyUpdates(ctx, f, updateBatch(f, vr, rng))
			if err != nil {
				return nil, fmt.Errorf("%s batch %d: %w", name, b, err)
			}
			pages += float64(res.PagesWritten + res.IndexPagesWritten)
			sim += res.IO.SimElapsed
		}
		n := float64(UpdateBatches)
		row := Row{
			NsOp:    float64(time.Since(start).Nanoseconds()) / n,
			PagesOp: pages / n,
			SimNsOp: float64(sim.Nanoseconds()) / n,
		}
		if sim > 0 {
			row.QPSSim = n / sim.Seconds()
		}
		rows[name] = row

		// Reader-under-update rows: the rotation interleaved with batches.
		for _, sel := range Selectivities {
			f, err := FixtureTerrain(0, 0)
			if err != nil {
				return nil, err
			}
			pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
			idx, err := spec.Build(f, pager)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Label, err)
			}
			up := idx.(core.Engine)
			vr := f.ValueRange()
			rng := rand.New(rand.NewSource(FixtureSeed + int64(sel*1e6)))
			queries := FixtureQueries(vr, sel, 64)
			name := fmt.Sprintf("UpdateLoad/%s/read/sel=%.2f", spec.Label, sel)
			var pages float64
			var sim time.Duration
			start := time.Now()
			for i, q := range queries {
				if i%updateInterleave == 0 {
					if _, err := up.ApplyUpdates(ctx, f, updateBatch(f, vr, rng)); err != nil {
						return nil, fmt.Errorf("%s batch at query %d: %w", name, i, err)
					}
				}
				res, err := idx.Query(q)
				if err != nil {
					return nil, fmt.Errorf("%s query %d: %w", name, i, err)
				}
				pages += float64(res.IO.Reads)
				sim += res.IO.SimElapsed
			}
			n := float64(len(queries))
			row := Row{
				NsOp:    float64(time.Since(start).Nanoseconds()) / n,
				PagesOp: pages / n,
				SimNsOp: float64(sim.Nanoseconds()) / n,
			}
			if sim > 0 {
				row.QPSSim = n / sim.Seconds()
			}
			rows[name] = row
		}
	}
	return rows, nil
}
