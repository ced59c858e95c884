package fielddb

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// immutableField hides the Mutable methods of a field behind a plain Field,
// for the refusal test.
type immutableField struct{ Field }

func TestUpdateSamplesFacade(t *testing.T) {
	ctx := context.Background()
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := dem.ValueRange()

	// Raise a block of vertices above the old maximum, nudge a few others.
	updates := []SampleUpdate{
		{Sample: 0, Value: vr.Hi + 50},
		{Sample: 1, Value: vr.Hi + 60},
		{Sample: 40, Value: dem.SampleValue(40) + 1},
	}
	res, err := db.UpdateSamples(ctx, updates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.SamplesApplied != 3 || res.CellsTouched == 0 || res.PagesWritten == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.SpatialEpoch != 1 || res.SpatialPagesWritten == 0 {
		t.Fatalf("spatial plane did not commit: %+v", res)
	}

	// The whole facade converges to a database opened fresh on the mutated
	// field: value, above/below, approximate, contour, and point queries.
	scratch, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()
	nvr := dem.ValueRange()
	if nvr.Hi != vr.Hi+60 {
		t.Fatalf("field range did not grow: %v", nvr)
	}
	check := func(a *Result, aerr error, b *Result, berr error) {
		t.Helper()
		if aerr != nil || berr != nil {
			t.Fatal(aerr, berr)
		}
		if !reflect.DeepEqual(a.Regions, b.Regions) || a.CellsMatched != b.CellsMatched ||
			a.Area != b.Area || a.IO != b.IO {
			t.Fatalf("updated DB diverged from fresh open:\n%+v\n%+v", a, b)
		}
	}
	for _, q := range [][2]float64{
		{vr.Hi + 10, nvr.Hi}, // only the new peak
		{nvr.Lo + 0.4*nvr.Length(), nvr.Lo + 0.5*nvr.Length()},
	} {
		a, aerr := db.ValueQuery(q[0], q[1])
		b, berr := scratch.ValueQuery(q[0], q[1])
		check(a, aerr, b, berr)
	}
	// ValueAbove must reach the new maximum through the cached range.
	a, aerr := db.ValueAbove(vr.Hi + 10)
	b, berr := scratch.ValueAbove(vr.Hi + 10)
	check(a, aerr, b, berr)
	if a.CellsMatched == 0 {
		t.Fatal("ValueAbove missed the new peak: stale value range")
	}
	a, aerr = db.ValueBelowContext(ctx, nvr.Lo+0.2*nvr.Length())
	b, berr = scratch.ValueBelowContext(ctx, nvr.Lo+0.2*nvr.Length())
	check(a, aerr, b, berr)
	pt := geom.Pt(0.5, 0.5) // inside the updated corner cells
	w1, err1 := db.PointQuery(pt)
	w2, err2 := scratch.PointQuery(pt)
	if err1 != nil || err2 != nil || w1 != w2 {
		t.Fatalf("point query after update: %g/%v vs %g/%v", w1, err1, w2, err2)
	}

	// Update metrics flowed into the engine registry (value plane + spatial
	// plane each record their batch).
	m := db.Metrics().Engine
	if m.UpdateBatches != 2 || m.UpdatesApplied != 6 || m.UpdatePagesWritten == 0 {
		t.Fatalf("update metrics = %+v", m)
	}
}

func TestUpdateSamplesRefusals(t *testing.T) {
	ctx := context.Background()
	dem, err := TerrainDEM(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.UpdateSamples(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	// An immutable field cannot update, with the typed sentinel.
	frozen, err := Open(immutableField{dem}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()
	if _, err := frozen.UpdateSamples(ctx, []SampleUpdate{{Sample: 0, Value: 1}}); !errors.Is(err, ErrUpdatesUnsupported) {
		t.Fatalf("immutable field err = %v", err)
	}

	// IQuad does not support live updates; the facade surfaces core's error.
	quad, err := Open(dem, Options{Method: IQuad})
	if err != nil {
		t.Fatal(err)
	}
	defer quad.Close()
	if _, err := quad.UpdateSamples(ctx, []SampleUpdate{{Sample: 0, Value: 1}}); !errors.Is(err, ErrUpdatesUnsupported) {
		t.Fatalf("IQuad err = %v", err)
	}

	// Closed DB.
	closed, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := closed.UpdateSamples(ctx, []SampleUpdate{{Sample: 0, Value: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed err = %v", err)
	}
	if _, err := closed.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed snapshot err = %v", err)
	}
}

// TestLiveUpdateStress is the acceptance stress test of the tentpole, meant
// for -race: concurrent UpdateSamples batches against readers of every kind.
// Snapshot readers must stay byte-identical to their pinned epoch's solo
// answers (per-query I/O statistics included), no reader may error, and both
// stores' totals must grow by exactly the sum of the published per-operation
// statistics — queries and update batches alike.
func TestLiveUpdateStress(t *testing.T) {
	ctx := context.Background()
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := dem.ValueRange()
	b := dem.Bounds()

	// Fixed queries with pre-update solo reference answers, for the epoch-0
	// snapshot's byte-identity check.
	fixed := []Interval{
		{Lo: vr.Lo + 0.40*vr.Length(), Hi: vr.Lo + 0.46*vr.Length()},
		{Lo: vr.Lo + 0.70*vr.Length(), Hi: vr.Lo + 0.74*vr.Length()},
	}
	refs := make([]*Result, len(fixed))
	for i, q := range fixed {
		if refs[i], err = db.ValueQuery(q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	baseVal := db.IOStats()
	baseSp := db.SpatialIOStats()
	var (
		mu     sync.Mutex
		sumVal storage.Stats
		sumSp  storage.Stats
	)
	addVal := func(st storage.Stats) { mu.Lock(); sumVal = sumVal.Add(st); mu.Unlock() }
	addSp := func(st storage.Stats) { mu.Lock(); sumSp = sumSp.Add(st); mu.Unlock() }

	const (
		updaters   = 2
		readers    = 8
		iterations = 12
	)
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iterations; it++ {
				updates := make([]SampleUpdate, 8)
				for i := range updates {
					s := rng.Intn(dem.NumSamples())
					updates[i] = SampleUpdate{
						Sample: s,
						Value:  vr.Lo + rng.Float64()*vr.Length(),
					}
				}
				res, err := db.UpdateSamples(ctx, updates)
				if err != nil {
					t.Error(err)
					return
				}
				addVal(res.IO)
				addSp(res.SpatialIO)
			}
		}(int64(u) + 100)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iterations; it++ {
				switch it % 5 {
				case 0: // solo value query
					lo := vr.Lo + rng.Float64()*vr.Length()*0.8
					res, err := db.ValueQuery(lo, lo+vr.Length()*0.08)
					if err != nil {
						t.Error(err)
						return
					}
					addVal(res.IO)
				case 1: // batch: members publish their own stats
					results, err := db.ValueQueryBatch(ctx, fixed)
					if err != nil {
						t.Error(err)
						return
					}
					for _, res := range results {
						addVal(res.IO)
					}
				case 2: // snapshot reader: byte-identical to epoch 0
					i := rng.Intn(len(fixed))
					res, err := snap.ValueQuery(fixed[i].Lo, fixed[i].Hi)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, refs[i]) {
						t.Errorf("snapshot query %v diverged from its epoch's solo answer", fixed[i])
						return
					}
					addVal(res.IO)
				case 3: // conventional query on the spatial store
					pt := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
					_, st, err := db.PointQueryStatsContext(ctx, pt)
					if err != nil {
						t.Error(err)
						return
					}
					addSp(st)
				case 4: // open-ended query through the cached range
					res, err := db.ValueAboveContext(ctx, vr.Lo+rng.Float64()*vr.Length())
					if err != nil {
						t.Error(err)
						return
					}
					addVal(res.IO)
				}
			}
		}(int64(r) + 1)
	}
	wg.Wait()

	if got := db.IOStats().Sub(baseVal); got != sumVal {
		t.Errorf("value store totals %+v != sum of published stats %+v", got, sumVal)
	}
	if got := db.SpatialIOStats().Sub(baseSp); got != sumSp {
		t.Errorf("spatial store totals %+v != sum of published stats %+v", got, sumSp)
	}

	// The snapshot still answers at epoch 0 after every batch committed …
	for i, q := range fixed {
		res, err := snap.ValueQuery(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, refs[i]) {
			t.Fatalf("post-stress snapshot query %v diverged", q)
		}
	}
	if snap.Epoch() != 0 {
		t.Fatalf("snapshot epoch = %d", snap.Epoch())
	}
	// … while the live DB converges to a fresh open of the mutated field.
	scratch, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()
	for _, q := range fixed {
		a, err := db.ValueQuery(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := scratch.ValueQuery(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Regions, bres.Regions) || a.CellsMatched != bres.CellsMatched || a.IO != bres.IO {
			t.Fatalf("post-stress live query %v diverged from fresh open", q)
		}
	}
	if db.Metrics().Engine.UpdateBatches != 2*updaters*iterations {
		t.Fatalf("update batches = %d", db.Metrics().Engine.UpdateBatches)
	}
}

var _ field.Field = immutableField{}
