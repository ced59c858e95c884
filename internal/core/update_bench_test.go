package core

import (
	"context"
	"math/rand"
	"testing"

	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// BenchmarkApplyUpdates times the write plane alone: one op commits one
// 16-sample batch — random samples moved to random values inside the field's
// range, the update-load suite's batch — on the 256×256 benchmark fixture,
// built the way the suites build it (I-All bulk-loaded). ns/op, B/op and
// allocs/op are one batch's: patch, maintain, summary refit and commit.
// nodes/fresh is the patched tree's node count over a fresh build's on the
// field the batches left behind. Uniform values make the field noise, and
// groups merge: past ~1 000 batches both trees shrink to a few nodes, so a
// long run here says little about drift (DESIGN §5.7 has a stationary one).
func BenchmarkApplyUpdates(b *testing.B) {
	for _, opts := range []BuildOptions{
		{Method: MethodIHilbert},
		{Method: MethodIAll, BulkLoad: true},
		{Method: MethodLinearScan},
	} {
		b.Run(string(opts.Method), func(b *testing.B) {
			f, err := workload.Terrain(256, 4217)
			if err != nil {
				b.Fatal(err)
			}
			pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
			eng, err := Build(context.Background(), f, pager, opts)
			if err != nil {
				b.Fatal(err)
			}
			vr := f.ValueRange()
			rng := rand.New(rand.NewSource(4217))
			batch := make([]SampleUpdate, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i := range batch {
					batch[i] = SampleUpdate{Sample: rng.Intn(f.NumSamples()), Value: vr.Lo + rng.Float64()*vr.Length()}
				}
				if _, err := eng.ApplyUpdates(context.Background(), f, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// A patched tree is not a fresh build's: nodes/fresh is its node
			// count over that of a build on the field the batches left behind.
			fresh, err := Build(context.Background(), f, storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16), opts)
			if err != nil {
				b.Fatal(err)
			}
			if n := fresh.Stats().IndexPages; n > 0 {
				b.ReportMetric(float64(eng.Stats().IndexPages)/float64(n), "nodes/fresh")
			}
		})
	}
}
