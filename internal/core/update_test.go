package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// mutableField is the test-side view of a field that supports live updates.
type mutableField interface {
	field.Mutable
}

// testUpdates builds a deterministic batch over f's samples: mostly small
// perturbations, plus a few large moves so cell intervals genuinely change.
func testUpdates(f mutableField, n int, seed int64) []SampleUpdate {
	rng := rand.New(rand.NewSource(seed))
	vr := f.ValueRange()
	updates := make([]SampleUpdate, 0, n)
	for i := 0; i < n; i++ {
		s := rng.Intn(f.NumSamples())
		v := f.SampleValue(s) + rng.NormFloat64()*vr.Length()*0.02
		if i%7 == 0 {
			// A big move: jump toward the opposite end of the range.
			v = vr.Lo + (1-((v-vr.Lo)/vr.Length()))*vr.Length()
		}
		updates = append(updates, SampleUpdate{Sample: s, Value: v})
	}
	return updates
}

// convergenceQueries is testQueries plus random selective intervals over the
// (post-update) value range.
func convergenceQueries(f field.Field, seed int64) []geom.Interval {
	rng := rand.New(rand.NewSource(seed))
	vr := f.ValueRange()
	qs := testQueries(f)
	for i := 0; i < 10; i++ {
		lo := vr.Lo + rng.Float64()*vr.Length()
		qs = append(qs, geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.1})
	}
	return qs
}

// checkPointQueries builds the spatial tree over f and requires that, read
// through eng's cell file, it answers the field's own interpolation at random
// points — the two access paths agree on what the one stored copy of the cells
// holds.
func checkPointQueries(t *testing.T, f field.Field, eng Engine, seed int64) {
	t.Helper()
	sp, err := BuildSpatial(f, newPager())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := f.Bounds()
	for i := 0; i < 50; i++ {
		pt := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		want, ok := field.ValueAt(f, pt)
		if !ok {
			continue // a TIN's hull does not fill its bounding rectangle
		}
		got, st, err := sp.PointQueryContext(context.Background(), eng, pt)
		if err != nil {
			t.Fatalf("point %v: %v", pt, err)
		}
		if math.Abs(got-want) > 1e-9 || st.Reads == 0 {
			t.Fatalf("point %v: index answers %g in %d reads, the field %g", pt, got, st.Reads, want)
		}
	}
}

// updatableBuilders is the configuration list of the update suites: every
// method with live updates, untiled and — where the method tiles — under the
// planner, each built on a fresh pager.
func updatableBuilders(maxSize float64) map[string]func(f field.Field) (Engine, error) {
	tiled := func(m Method) func(f field.Field) (Engine, error) {
		return func(f field.Field) (Engine, error) {
			return Build(context.Background(), f, newPager(), BuildOptions{Method: m, TileSide: 8})
		}
	}
	return map[string]func(f field.Field) (Engine, error){
		"Tiled-LinearScan": tiled(MethodLinearScan),
		"Tiled-I-Hilbert":  tiled(MethodIHilbert),
		"LinearScan": func(f field.Field) (Engine, error) {
			return buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
		},
		"I-All": func(f field.Field) (Engine, error) { return buildIx(f, newPager(), BuildOptions{Method: MethodIAll}) },
		"I-Hilbert": func(f field.Field) (Engine, error) {
			return buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
		},
		"I-Auto": func(f field.Field) (Engine, error) { return buildIx(f, newPager(), BuildOptions{Method: MethodAuto}) },
	}
}

// TestUpdateConvergence is the acceptance criterion of the tentpole: after
// update batches, a fresh query on the updated index returns exactly what an
// index rebuilt from scratch on the mutated field returns, and a point query
// through it the mutated field's own interpolation — for every updatable
// configuration, on a grid and a TIN.
func TestUpdateConvergence(t *testing.T) {
	ctx := context.Background()
	fields := map[string]func() mutableField{
		"dem": func() mutableField { return testDEM(t, 32, 0.7) },
		"tin": func() mutableField { return testTIN(t, 400) },
	}
	for fname, mk := range fields {
		// MaxSize is fixed from the pre-update range so the scratch rebuild
		// uses the identical threshold.
		maxSize := mk().ValueRange().Length()/8 + 1
		for mname, build := range updatableBuilders(maxSize) {
			t.Run(fname+"/"+mname, func(t *testing.T) {
				f := mk()
				idx, err := build(f)
				if err != nil {
					t.Fatal(err)
				}
				for batch := int64(0); batch < 3; batch++ {
					updates := testUpdates(f, 40, 77+batch)
					res, err := idx.ApplyUpdates(ctx, f, updates)
					if err != nil {
						t.Fatal(err)
					}
					if res.Epoch == 0 || res.SamplesApplied != len(updates) || res.CellsTouched == 0 {
						t.Fatalf("result = %+v", res)
					}
				}
				checkPointQueries(t, f, idx, 6)
				// Scratch rebuild on the mutated field is the reference.
				scratch, err := build(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range convergenceQueries(f, 5) {
					got, err := idx.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := scratch.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					ga, wa := answerOf(got), answerOf(want)
					// Tree structure may differ between incremental
					// maintenance and a scratch build, so physical counters
					// (CandidateGroups, CellsFetched) are compared only for
					// methods whose answer derives from the partition cut.
					if ga.CellsMatched != wa.CellsMatched ||
						math.Abs(ga.Area-wa.Area) > 1e-9*(1+wa.Area) ||
						!reflect.DeepEqual(ga.Regions, wa.Regions) ||
						!reflect.DeepEqual(ga.Isolines, wa.Isolines) {
						t.Fatalf("query %v diverged from scratch rebuild:\nupdated %+v\nscratch %+v",
							q, ga, wa)
					}
					// A tile's value summary only widens under updates, so the
					// planner may scan a tile a scratch build prunes.
					if !strings.HasPrefix(mname, "Tiled-") &&
						(ga.CandidateGroups != wa.CandidateGroups || ga.CellsFetched != wa.CellsFetched) {
						t.Fatalf("query %v: pipeline diverged: %d/%d groups, %d/%d cells",
							q, ga.CandidateGroups, wa.CandidateGroups, ga.CellsFetched, wa.CellsFetched)
					}
				}
				// Brute force agrees too (belt and braces: the scratch build
				// and the updated index could in principle share a bug).
				q := convergenceQueries(f, 5)[0]
				want, wantArea := bruteForce(f, q)
				got, err := idx.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.CellsMatched != len(want) || math.Abs(got.Area-wantArea) > 1e-6*(1+wantArea) {
					t.Fatalf("query %v: %d cells / area %g, brute force %d / %g",
						q, got.CellsMatched, got.Area, len(want), wantArea)
				}
			})
		}
	}
}

// TestUpdateRegroup forces the §3 cost bound to move a group boundary: a
// large coherent value shift across a block of the field makes the greedy cut
// drift, ApplyUpdates reports Regrouped, and the re-cut index still converges
// to the scratch rebuild.
func TestUpdateRegroup(t *testing.T) {
	ctx := context.Background()
	f := testDEM(t, 32, 0.7)
	p, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	// Push a quarter of the vertices far above the old range: interval
	// lengths in that block explode, so the cost bound re-cuts.
	vr := f.ValueRange()
	var updates []SampleUpdate
	for s := 0; s < f.NumSamples()/4; s++ {
		updates = append(updates, SampleUpdate{Sample: s, Value: f.SampleValue(s) + 3*vr.Length()})
	}
	res, err := p.ApplyUpdates(ctx, f, updates)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regrouped {
		t.Fatal("massive value shift did not re-cut the partition")
	}
	if res.IndexPagesWritten == 0 {
		t.Fatal("re-cut persisted no index pages")
	}
	scratch, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stats().Groups, scratch.Stats().Groups; got != want {
		t.Fatalf("re-cut produced %d groups, scratch build %d", got, want)
	}
	for _, q := range convergenceQueries(f, 9) {
		got, err := p.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
			t.Fatalf("query %v diverged after re-cut", q)
		}
	}
}

// TestUpdateSnapshotIsolation: a snapshot acquired before a batch keeps
// answering with the pre-batch state, byte for byte — solo and as one shared
// batch at the pin — while post-batch queries see the new state, on every
// updatable method.
func TestUpdateSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	for mname, build := range updatableBuilders(testDEM(t, 32, 0.7).ValueRange().Length()/8 + 1) {
		t.Run(mname, func(t *testing.T) {
			f := testDEM(t, 32, 0.7)
			p, err := build(f)
			if err != nil {
				t.Fatal(err)
			}
			queries := convergenceQueries(f, 3)
			before := make([]*Result, len(queries))
			members := make([]BatchQuery, len(queries))
			for i, q := range queries {
				if before[i], err = p.Query(q); err != nil {
					t.Fatal(err)
				}
				members[i] = BatchQuery{Query: q}
			}
			snap := p.AcquireSnapshot()
			defer snap.Close()
			res, err := p.ApplyUpdates(ctx, f, testUpdates(f, 40, 11))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Epoch() == res.Epoch {
				t.Fatal("snapshot claims the post-batch epoch")
			}
			batched, st := snap.QueryBatch(members)
			// A partitioned-inner tiling runs its batch members solo.
			if st.PagesSaved == 0 && mname != "Tiled-I-Hilbert" {
				t.Fatalf("batch at the pin shared no pages: %+v", st)
			}
			changed := false
			for i, q := range queries {
				at, err := snap.QueryContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(at, before[i]) {
					t.Fatalf("query %v through the snapshot diverged from its pre-batch answer", q)
				}
				if batched[i].Err != nil || !reflect.DeepEqual(batched[i].Res, at) {
					t.Fatalf("query %v batched at the pin diverged from solo at the pin (err %v)", q, batched[i].Err)
				}
				now, err := p.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(answerOf(now), answerOf(before[i])) {
					changed = true
				}
			}
			if !changed {
				t.Fatal("update batch changed no query answer; isolation test is vacuous")
			}
		})
	}
}

// TestSaveAfterUpdatesRoundtrip: saving after update batches persists the
// materialized (patched) pages plus the epoch and cost parameters, and the
// reopened index answers identically — then accepts further updates.
func TestSaveAfterUpdatesRoundtrip(t *testing.T) {
	ctx := context.Background()
	f := testDEM(t, 32, 0.7)
	p, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ApplyUpdates(ctx, f, testUpdates(f, 40, 23))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "updated.fidx")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := opened.pager.CurrentEpoch(); got != res.Epoch {
		t.Fatalf("reopened at epoch %d, saved at %d", got, res.Epoch)
	}
	queries := convergenceQueries(f, 7)
	for _, q := range queries {
		a, err := p.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
			t.Fatalf("query %v: reopened updated index diverged", q)
		}
	}
	// The reopened index keeps updating: apply a second batch and converge
	// against a scratch rebuild of the twice-mutated field.
	if _, err := opened.ApplyUpdates(ctx, f, testUpdates(f, 40, 29)); err != nil {
		t.Fatal(err)
	}
	scratch, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range convergenceQueries(f, 13) {
		a, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scratch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
			t.Fatalf("query %v: reopened index diverged after second batch", q)
		}
	}
}

// TestUpdateValidationAndUnsupported covers the refusal paths: bad batches
// leave the field and epoch untouched, and configurations without update
// support say so with ErrUpdatesUnsupported.
func TestUpdateValidationAndUnsupported(t *testing.T) {
	ctx := context.Background()
	f := testDEM(t, 16, 0.6)
	p, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	v0 := f.SampleValue(3)
	for name, bad := range map[string][]SampleUpdate{
		"out-of-range": {{Sample: f.NumSamples(), Value: 1}},
		"negative":     {{Sample: -1, Value: 1}},
		"nan":          {{Sample: 3, Value: math.NaN()}},
		"inf":          {{Sample: 3, Value: math.Inf(1)}},
		"mixed":        {{Sample: 3, Value: 5}, {Sample: 4, Value: math.NaN()}},
	} {
		if _, err := p.ApplyUpdates(ctx, f, bad); err == nil {
			t.Fatalf("%s batch accepted", name)
		}
	}
	if f.SampleValue(3) != v0 {
		t.Fatal("failed batch left a mutated sample behind")
	}
	if e := p.pager.CurrentEpoch(); e != 0 {
		t.Fatalf("failed batches moved the epoch to %d", e)
	}

	// I-Quad's spatial recursion is not maintained incrementally.
	vr := f.ValueRange()
	iq, err := buildIx(f, newPager(), BuildOptions{Method: MethodIQuad, MaxSize: vr.Length()/8 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iq.ApplyUpdates(ctx, f, []SampleUpdate{{Sample: 3, Value: 5}}); !errors.Is(err, ErrUpdatesUnsupported) {
		t.Fatalf("I-Quad update err = %v", err)
	}

	// A file saved without a sidecar carries no position map: updates are
	// refused, untiled or tiled.
	for name, opts := range map[string]BuildOptions{
		"I-Hilbert":        {Method: MethodIHilbert, NoSidecar: true},
		"Tiled-LinearScan": {Method: MethodLinearScan, TileSide: 8, NoSidecar: true},
	} {
		bare, err := Build(ctx, f, newPager(), opts)
		if err != nil {
			t.Fatal(err)
		}
		barePath := filepath.Join(t.TempDir(), name+".fidx")
		if err := bare.SaveFile(barePath); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(barePath, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		if _, err := opened.ApplyUpdates(ctx, f, []SampleUpdate{{Sample: 3, Value: 5}}); !errors.Is(err, ErrUpdatesUnsupported) {
			t.Fatalf("sidecar-less %s file update err = %v", name, err)
		}
	}
}

// TestTiledUpdateMaintainsThroughHook: the tiled updater maintains a tile
// through the tile's own maintain hook, so a one-tile Tiled-I-Hilbert index
// and an untiled I-Hilbert index over the same field, fed the same batches,
// stay in lockstep — same subfields, same tree answers, same UpdateResult —
// batch after batch. The write plane's O(dirty) regrouping lands in that hook
// once and the planner inherits it.
func TestTiledUpdateMaintainsThroughHook(t *testing.T) {
	ctx := context.Background()
	ft, fu := testDEM(t, 16, 0.7), testDEM(t, 16, 0.7)
	tiledPager, flatPager := newPager(), newPager()
	tiled, err := buildIx(ft, tiledPager, BuildOptions{Method: MethodIHilbert, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := buildIx(fu, flatPager, BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiled.Tiles()) != 1 {
		t.Fatalf("%d tiles, want the one-tile case", len(tiled.Tiles()))
	}
	// candidates runs a partition's filter hook and returns what it selected.
	candidates := func(pager *storage.Pager, p *partition, st *partState, q geom.Interval) (int, []pageRun) {
		qc := pager.BeginQuery()
		defer qc.Release()
		pr := getProbe()
		defer putProbe(pr)
		pr.reset(ctx, qc, q, false)
		if err := p.candidates(st, pr); err != nil {
			t.Fatal(err)
		}
		return pr.groups, append([]pageRun(nil), pr.runs...)
	}
	regroups := 0
	for batch := int64(0); batch < 8; batch++ {
		n := 4
		if batch%2 == 1 {
			n = 64 // large enough to move a group boundary
		}
		updates := testUpdates(fu, n, 300+batch)
		want, err := flat.ApplyUpdates(ctx, fu, updates)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiled.ApplyUpdates(ctx, ft, updates)
		if err != nil {
			t.Fatal(err)
		}
		if got.Regrouped != want.Regrouped || got.IndexPagesWritten != want.IndexPagesWritten || got.CellsTouched != want.CellsTouched {
			t.Fatalf("batch %d: tiled result %+v, untiled %+v", batch, got, want)
		}
		if want.Regrouped {
			regroups++
		}
		tst, fst := tiled.cur().parts[0], flat.cur().parts[0]
		if !reflect.DeepEqual(tst.groups, fst.groups) {
			t.Fatalf("batch %d: the tile has %d subfields, the untiled index %d, or they differ", batch, len(tst.groups), len(fst.groups))
		}
		for _, q := range convergenceQueries(fu, 400+batch) {
			tg, truns := candidates(tiledPager, tiled.parts[0], tst, q)
			fg, fruns := candidates(flatPager, flat.parts[0], fst, q)
			if tg != fg || !reflect.DeepEqual(truns, fruns) {
				t.Fatalf("batch %d %v: the tile's tree selects %d subfields in runs %v, the untiled tree %d in %v", batch, q, tg, truns, fg, fruns)
			}
		}
	}
	if regroups == 0 {
		t.Fatal("no batch re-cut the partition; the case is vacuous")
	}
}
