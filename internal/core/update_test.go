package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
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

// TestUpdateValidationAndUnsupported covers the refusals of bad batches —
// samples outside the field, non-finite values — which leave the field and
// the epoch untouched. (Every configuration takes updates; the facade refuses
// an immutable field with its own ErrUpdatesUnsupported.)
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
