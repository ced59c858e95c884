package fielddb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
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
	if res.SpatialPagesWritten != 0 {
		t.Fatalf("the one cell file was patched twice: %+v", res)
	}

	// The facade's cached value range follows the field: ValueAbove reaches the
	// new maximum, answering as a database opened fresh on the mutated field.
	scratch, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()
	if nvr := dem.ValueRange(); nvr.Hi != vr.Hi+60 || db.ValueRange() != nvr {
		t.Fatalf("field range %v, the facade's %v", nvr, db.ValueRange())
	}
	a, aerr := db.ValueAbove(vr.Hi + 10)
	b, berr := scratch.ValueAbove(vr.Hi + 10)
	if aerr != nil || berr != nil || a.CellsMatched == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("ValueAbove after the update: %v, %v; fresh open %v", aerr, a, b)
	}

	// Update metrics flowed into the engine registry: one batch, one
	// transaction.
	m := db.Metrics().Engine
	if m.UpdateBatches != 1 || m.UpdatesApplied != 3 || m.UpdatePagesWritten == 0 {
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

// pagerSplit is a Tracer that files a point query's page activity by span —
// the filter span, the locator's arithmetic, which must read nothing, and the
// decode span, the cell fetch on the one store — so a test can hold the
// filter to zero and reconcile the store's totals with the fetches.
type pagerSplit struct {
	mu           sync.Mutex
	filter, cell storage.Stats
}

func (s *pagerSplit) TraceQuery(tr *QueryTrace) {
	if tr.Kind != obs.KindPoint {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range tr.Spans {
		st := storage.Stats{Reads: sp.Pages.Reads, SeqReads: sp.Pages.SeqReads, RandReads: sp.Pages.RandReads,
			CacheHits: sp.Pages.CacheHits, SimElapsed: sp.Pages.SimElapsed}
		if sp.Phase == obs.PhaseFilter {
			s.filter = s.filter.Add(st)
		} else {
			s.cell = s.cell.Add(st)
		}
	}
}

// TestLiveUpdateStress is the acceptance stress test of the tentpole, meant
// for -race: concurrent UpdateSamples batches against readers of every kind,
// for every updatable method × untiled/tiled × grid/TIN. Snapshot readers —
// value and point queries alike, they share one pin — must stay byte-identical
// to their pinned epoch's solo answers (per-query I/O statistics included), no
// reader may error, the store's totals must grow by exactly the sum of the
// published per-operation statistics — value queries, the cell fetches of
// point queries, whose filter reads nothing, and update batches —, and
// afterwards the live database answers like a fresh open of the mutated
// field, point queries with the field's own interpolation.
// Every database is opened with the default Workers, so its solo readers fan
// out over pooled forks while the batches commit: sixteen cores leave idle
// ones beside the eight readers and two updaters on any machine.
func TestLiveUpdateStress(t *testing.T) {
	atLeastProcs(t, 16)
	fields := map[string]func() (field.Mutable, error){
		"dem": func() (field.Mutable, error) { return TerrainDEM(32, 42) },
		"tin": func() (field.Mutable, error) { return NoiseTIN(600, 42) },
	}
	for _, opts := range []Options{
		{Method: LinearScan}, {Method: IAll}, {Method: IHilbert},
		{Method: LinearScan, TileSide: 8}, {Method: IHilbert, TileSide: 8},
	} {
		for fname, mk := range fields {
			t.Run(fmt.Sprintf("%s/tile=%d/%s", opts.Method, opts.TileSide, fname), func(t *testing.T) {
				f, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				stressLiveUpdates(t, f, opts)
			})
		}
	}
}

func stressLiveUpdates(t *testing.T, f field.Mutable, opts Options) {
	ctx := context.Background()
	split := &pagerSplit{}
	opts.Tracer = split
	db, err := Open(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := f.ValueRange()
	b := f.Bounds()
	// Points inside the field (a TIN's hull does not fill its bounds), drawn
	// before any updater runs: Locate reads the field the updaters write.
	rng := rand.New(rand.NewSource(9))
	var points []geom.Point
	for len(points) < 256 {
		pt := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		if _, ok := f.Locate(pt); ok {
			points = append(points, pt)
		}
	}
	inside := func(rng *rand.Rand) geom.Point { return points[rng.Intn(len(points))] }

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
	type pointRef struct {
		pt Point
		w  float64
		io storage.Stats
	}
	pointRefs := make([]pointRef, 8)
	for i := range pointRefs {
		r := &pointRefs[i]
		r.pt = points[i]
		if r.w, r.io, err = db.PointQueryStatsContext(ctx, r.pt); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	checkSnapshotPoint := func(r pointRef) error {
		w, io, err := snap.PointQueryStatsContext(ctx, r.pt)
		if err != nil {
			return err
		}
		if w != r.w || io != r.io {
			return fmt.Errorf("snapshot point %v = %g (%v), pre-batch %g (%v)", r.pt, w, io, r.w, r.io)
		}
		return nil
	}

	baseVal := db.IOStats()
	split.mu.Lock()
	split.filter, split.cell = storage.Stats{}, storage.Stats{}
	split.mu.Unlock()
	var (
		mu     sync.Mutex
		sumVal storage.Stats
		sumPt  storage.Stats
	)
	addVal := func(st storage.Stats) { mu.Lock(); sumVal = sumVal.Add(st); mu.Unlock() }
	addPt := func(st storage.Stats) { mu.Lock(); sumPt = sumPt.Add(st); mu.Unlock() }

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
					s := rng.Intn(f.NumSamples())
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
			}
		}(int64(u) + 100)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iterations; it++ {
				switch it % 6 {
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
				case 3: // conventional query: the tree, then the live cell file
					_, st, err := db.PointQueryStatsContext(ctx, inside(rng))
					if err != nil {
						t.Error(err)
						return
					}
					addPt(st)
				case 4: // open-ended query through the cached range
					res, err := db.ValueAboveContext(ctx, vr.Lo+rng.Float64()*vr.Length())
					if err != nil {
						t.Error(err)
						return
					}
					addVal(res.IO)
				case 5: // conventional query at the pin: the pre-batch value
					r := pointRefs[rng.Intn(len(pointRefs))]
					if err := checkSnapshotPoint(r); err != nil {
						t.Error(err)
						return
					}
					addPt(r.io)
				}
			}
		}(int64(r) + 1)
	}
	wg.Wait()
	// An untiled position fetch — LinearScan's sidecar survivors, I-All's
	// candidates — refines on one core; page runs and tiles fan out.
	byPos := opts.TileSide == 0 && (opts.Method == LinearScan || opts.Method == IAll)
	if db.Metrics().Engine.WorkerItems == 0 && !byPos {
		t.Error("no reader fanned out")
	}

	if split.filter != (storage.Stats{}) || split.cell != sumPt {
		t.Errorf("point-query spans: filter %+v, fetch %+v; the queries returned %+v", split.filter, split.cell, sumPt)
	}
	if got, want := db.IOStats().Sub(baseVal), sumVal.Add(split.cell); got != want {
		t.Errorf("value store totals %+v != sum of published stats %+v", got, want)
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
	for _, r := range pointRefs {
		if err := checkSnapshotPoint(r); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Epoch() != 0 {
		t.Fatalf("snapshot epoch = %d", snap.Epoch())
	}
	// … while the live DB converges to a fresh open of the mutated field, and
	// its point queries to the field's own interpolation.
	scratch, err := Open(f, Options{Method: opts.Method, TileSide: opts.TileSide})
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
		if !reflect.DeepEqual(a.Regions, bres.Regions) || a.CellsMatched != bres.CellsMatched {
			t.Fatalf("post-stress live query %v diverged from fresh open", q)
		}
		// A tile summary only widens under updates and a maintained per-cell
		// tree is not the scratch build's, so only the partition-derived
		// pipelines read the same pages.
		if opts.TileSide == 0 && opts.Method != IAll && a.IO != bres.IO {
			t.Fatalf("post-stress live query %v read %v, a fresh open %v", q, a.IO, bres.IO)
		}
	}
	moved := false
	for i := 0; i < 64; i++ {
		pt := inside(rng)
		if i < len(pointRefs) {
			pt = pointRefs[i].pt
		}
		got, err := db.PointQuery(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := field.ValueAt(f, pt)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("post-stress point %v = %g, the mutated field interpolates %g", pt, got, want)
		}
		moved = moved || (i < len(pointRefs) && got != pointRefs[i].w)
	}
	if !moved {
		t.Fatal("no batch moved a pinned point's value; the snapshot check is vacuous")
	}
	if got := db.Metrics().Engine.UpdateBatches; got != updaters*iterations {
		t.Fatalf("update batches = %d", got)
	}
}

var _ field.Field = immutableField{}
