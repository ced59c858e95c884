package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// assertSameAnswer asserts that got's answer fields are byte-identical to
// want's: same matched set, same fold order, same float accumulation.
func assertSameAnswer(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.CellsMatched != want.CellsMatched {
		t.Errorf("%s: CellsMatched = %d, want %d", label, got.CellsMatched, want.CellsMatched)
	}
	if got.CellsFetched != want.CellsFetched {
		t.Errorf("%s: CellsFetched = %d, want %d", label, got.CellsFetched, want.CellsFetched)
	}
	if got.Area != want.Area {
		t.Errorf("%s: Area = %v, want %v (not bit-identical)", label, got.Area, want.Area)
	}
	if got.MatchedCellArea != want.MatchedCellArea {
		t.Errorf("%s: MatchedCellArea = %v, want %v (not bit-identical)", label, got.MatchedCellArea, want.MatchedCellArea)
	}
	if !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Errorf("%s: Regions differ (len %d vs %d)", label, len(got.Regions), len(want.Regions))
	}
	if !reflect.DeepEqual(got.Isolines, want.Isolines) {
		t.Errorf("%s: Isolines differ (len %d vs %d)", label, len(got.Isolines), len(want.Isolines))
	}
}

func tiledTestQueries(f field.Field) []geom.Interval {
	vr := f.ValueRange()
	mid := (vr.Lo + vr.Hi) / 2
	return []geom.Interval{
		{Lo: mid - vr.Length()*0.005, Hi: mid + vr.Length()*0.005}, // ~1% band
		{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*0.1},                   // low tail
		{Lo: vr.Hi - vr.Length()*0.02, Hi: vr.Hi},                  // high tail: prunes most tiles
		{Lo: mid, Hi: mid},              // exact isoline
		{Lo: vr.Lo - 10, Hi: vr.Lo - 1}, // empty answer
	}
}

// TestTiledIdentity: every tiled configuration — inner method × codec —
// answers byte-identically to the untiled LinearScan on the same field.
func TestTiledIdentity(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	configs := []BuildOptions{
		{Method: MethodLinearScan, TileSide: 16},
		{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked},
		{Method: MethodLinearScan, TileSide: 48}, // uneven edge tiles
		{Method: MethodIHilbert, TileSide: 16},
		{Method: MethodIHilbert, TileSide: 16, Codec: storage.SidecarCodecPacked},
		{Method: MethodIQuad, TileSide: 16, MaxSize: vr.Length()/8 + 1},
	}
	for _, opts := range configs {
		ti, err := buildIx(f, newPager(), opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", opts.Method, opts.Codec, err)
		}
		for _, q := range tiledTestQueries(f) {
			want, err := ls.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ti.Query(q)
			if err != nil {
				t.Fatalf("%s tile=%d q=%v: %v", opts.Method, opts.TileSide, q, err)
			}
			label := string(opts.Method) + "/" + opts.Codec
			assertSameAnswer(t, label, got, want)
		}
	}
}

// TestTiledIdentityTIN exercises the spatial-binning tile layout fallback.
func TestTiledIdentityTIN(t *testing.T) {
	f := testTIN(t, 900)
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.Tiles()) < 2 {
		t.Fatalf("TIN layout produced %d tiles, want several", len(ti.Tiles()))
	}
	for _, q := range tiledTestQueries(f) {
		want, err := ls.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ti.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, "tin", got, want)
	}
}

// TestTiledParallelMatchesSequential: the worker-pool scatter answers
// byte-identically to the single-threaded one, the exact aggregate it feeds
// included — on a DEM, and on a TIN, whose cells differ in area so that the
// order MatchedCellArea is summed in shows.
func TestTiledParallelMatchesSequential(t *testing.T) {
	for name, f := range map[string]field.Field{"dem": testDEM(t, 64, 0.7), "tin": testTIN(t, 900)} {
		t.Run(name, func(t *testing.T) {
			ix, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range tiledTestQueries(f) {
				ix.SetWorkers(1)
				want, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				wantAgg, err := ix.AggregateContext(context.Background(), q, 0)
				if err != nil {
					t.Fatal(err)
				}
				ix.SetWorkers(4)
				got, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: workers=4 result diverges from workers=1\nseq: %+v\npar: %+v", q, want, got)
				}
				gotAgg, err := ix.AggregateContext(context.Background(), q, 0)
				if err != nil {
					t.Fatal(err)
				}
				// The summary answers an empty band itself; every other query
				// falls back to the exact pipeline.
				if gotAgg.Area != wantAgg.Area || gotAgg.Fallback != (want.CellsMatched > 0) ||
					(gotAgg.Fallback && gotAgg.Area != want.MatchedCellArea) {
					t.Errorf("%v: aggregate area %v at workers=4, %v at workers=1, MatchedCellArea %v (fallback %v)",
						q, gotAgg.Area, wantAgg.Area, want.MatchedCellArea, gotAgg.Fallback)
				}
			}
		})
	}
}

// sansIO is r without the fields that say how the answer was reached — the
// pages read and the filter's candidate count — which differ between a tiled
// store and the untiled scan it must otherwise equal field for field.
func sansIO(r *Result) Result {
	a := *r
	a.CandidateGroups, a.IO = 0, storage.Stats{}
	return a
}

// TestTiledMergeIdentity holds the gather's merge to the untiled scan where a
// tile's survivors do not arrive in field-id order: tiles whose heap is in
// Hilbert order, on a DEM and on a TIN's spatial bins, and a TIN tiling behind
// the shared batch scan. At workers 1 and 4 every Result equals the untiled
// sidecar-less scan's in everything but its page counts, the two worker counts
// agree on those too, and a batch member equals its solo query.
func TestTiledMergeIdentity(t *testing.T) {
	dem, tn := testDEM(t, 64, 0.7), testTIN(t, 900)
	for _, c := range []struct {
		name      string
		f         field.Field
		opts      BuildOptions
		unordered bool // the tiles' heap order is not the field's id order
	}{
		{"dem/Tiled-I-Hilbert", dem, BuildOptions{Method: MethodIHilbert, TileSide: 16}, true},
		{"tin/Tiled-I-Hilbert", tn, BuildOptions{Method: MethodIHilbert, TileSide: 16}, true},
		{"tin/Tiled-LinearScan+packed", tn, BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			scan, err := buildIx(c.f, newPager(), BuildOptions{Method: MethodLinearScan, NoSidecar: true})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := buildIx(c.f, newPager(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ix.parts) < 2 {
				t.Fatalf("%d tiles, want several", len(ix.parts))
			}
			// The case is only worth its name if the tiles' heaps are not in id
			// order (a sidecar-served scan's always are).
			for ti, p := range ix.parts {
				if sorted := slices.IsSorted(p.order); sorted == c.unordered {
					t.Fatalf("tile %d: heap in id order is %v, want %v", ti, sorted, !c.unordered)
				}
			}

			qs := tiledTestQueries(c.f)
			members := make([]BatchQuery, len(qs))
			for i, q := range qs {
				members[i] = BatchQuery{Query: q}
			}
			var seq []*Result
			for _, workers := range []int{1, 4} {
				ix.SetWorkers(workers)
				solo := soloResults(t, ix, qs)
				for i, q := range qs {
					want, err := scan.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if got := sansIO(solo[i]); !reflect.DeepEqual(got, sansIO(want)) {
						t.Errorf("workers=%d %v: answer diverges from the untiled scan\nscan:  %+v\ntiled: %+v", workers, q, sansIO(want), got)
					}
				}
				if seq == nil {
					seq = solo
				} else if !reflect.DeepEqual(solo, seq) {
					t.Errorf("workers=%d results diverge from workers=1", workers)
				}
				results, _ := ix.QueryBatch(members)
				for i, r := range results {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					if !reflect.DeepEqual(r.Res, solo[i]) {
						t.Errorf("workers=%d %v: batched result diverges from solo\nsolo:  %+v\nbatch: %+v", workers, qs[i], solo[i], r.Res)
					}
				}
			}
		})
	}
}

// TestTiledPruning asserts the planner's core claim: a selective query reads
// pages only from residual tiles — the prune span touches zero pages, pruned
// tiles contribute nothing, and physical reads drop well below the untiled
// scan's.
func TestTiledPruning(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(16)
	met := obs.NewMetrics()
	ti.SetObserver(obs.Observer{Tracer: col, Metrics: met})
	// A tight band at the top of the value range: only the tiles whose
	// summary reaches the maximum survive.
	vr := f.ValueRange()
	q := geom.Interval{Lo: vr.Hi - vr.Length()*0.01, Hi: vr.Hi}
	want, err := ls.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ti.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "pruned", got, want)

	snap := met.Snapshot()
	if snap.TilesPruned == 0 {
		t.Fatalf("no tiles pruned at q=%v; summaries: %v", q, ti.Tiles())
	}
	if snap.TilesPruned+snap.TilesScanned != int64(len(ti.Tiles())) {
		t.Errorf("pruned %d + scanned %d != %d tiles", snap.TilesPruned, snap.TilesScanned, len(ti.Tiles()))
	}
	if got.CandidateGroups != int(snap.TilesScanned) {
		t.Errorf("CandidateGroups = %d, metrics scanned = %d", got.CandidateGroups, snap.TilesScanned)
	}
	traces := col.Traces()
	if len(traces) == 0 {
		t.Fatal("no trace collected")
	}
	tr := traces[len(traces)-1]
	prunes, scans := 0, 0
	for _, sp := range tr.Spans {
		switch sp.Phase {
		case obs.PhaseTilePrune:
			prunes++
			if sp.Pages.Reads != 0 {
				t.Errorf("tile-prune span read %d pages, want 0", sp.Pages.Reads)
			}
		case obs.PhaseTileScan:
			scans++
		}
	}
	if prunes != 1 {
		t.Errorf("trace has %d tile-prune spans, want 1", prunes)
	}
	if scans != int(snap.TilesScanned) {
		t.Errorf("trace has %d tile-scan spans, want %d (sequential scatter)", scans, snap.TilesScanned)
	}
	// Exact attribution: the trace's reads equal the published query IO, and
	// the pruned tiles contributed zero — total reads must not exceed the
	// scanned tiles' page budget.
	if tr.IO.Reads != got.IO.Reads {
		t.Errorf("trace reads = %d, Result.IO.Reads = %d", tr.IO.Reads, got.IO.Reads)
	}
	if got.IO.Reads >= want.IO.Reads {
		t.Errorf("tiled read %d pages, untiled LinearScan %d — pruning saved nothing", got.IO.Reads, want.IO.Reads)
	}
}

// TestTiledUpdates: updates route to the owning tiles, commit as one epoch,
// keep answers identical to a fresh untiled build on the mutated field, and
// leave pinned snapshots reading the pre-update state.
func TestTiledUpdates(t *testing.T) {
	for _, inner := range []Method{MethodLinearScan, MethodIHilbert} {
		f := testDEM(t, 64, 0.7)
		ti, err := buildIx(f, newPager(), BuildOptions{Method: inner, TileSide: 16, Codec: storage.SidecarCodecPacked})
		if err != nil {
			t.Fatal(err)
		}
		vr := f.ValueRange()
		mid := (vr.Lo + vr.Hi) / 2
		q := geom.Interval{Lo: mid - vr.Length()*0.05, Hi: mid + vr.Length()*0.05}
		before, err := ti.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		snap := ti.AcquireSnapshot()
		defer snap.Close()
		epoch0 := ti.pager.CurrentEpoch()

		// Touch samples in several tiles: corners and center of the grid.
		nx := 65 // 64 cells -> 65 vertices per row
		updates := []SampleUpdate{
			{Sample: 10*nx + 10, Value: vr.Hi + 5},
			{Sample: 10*nx + 50, Value: vr.Lo - 5},
			{Sample: 50*nx + 10, Value: mid},
			{Sample: 50*nx + 50, Value: vr.Hi + 2},
			{Sample: 32*nx + 32, Value: vr.Lo - 2},
		}
		ur, err := ti.ApplyUpdates(context.Background(), f, updates)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		if ur.Epoch != epoch0+1 {
			t.Errorf("%s: cross-tile batch committed %d epochs, want exactly 1", inner, ur.Epoch-epoch0)
		}
		if ur.CellsTouched == 0 || ur.PagesWritten == 0 {
			t.Errorf("%s: empty update result %+v", inner, ur)
		}

		// Snapshot still answers the pre-update state.
		old, err := snap.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, string(inner)+"/snapshot", old, before)

		// Live queries match a fresh untiled build over the mutated field.
		ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
		if err != nil {
			t.Fatal(err)
		}
		for _, qq := range append(tiledTestQueries(f), q) {
			want, err := ls.Query(qq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ti.Query(qq)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, string(inner)+"/after-update", got, want)
		}
	}
}

// TestTiledBuildValidation covers the option errors.
func TestTiledBuildValidation(t *testing.T) {
	f := testDEM(t, 16, 0.7)
	if _, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 1}); err == nil {
		t.Error("tile side 1 accepted")
	}
	if _, err := buildIx(f, newPager(), BuildOptions{TileSide: 8, Method: MethodIAll}); err == nil {
		t.Error("tiled I-All accepted")
	}
	if _, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 8, Codec: "bogus"}); err == nil {
		t.Error("bogus codec accepted")
	}
}

// TestTiledBatchMatchesSolo: batched tiled queries — shared-scan for
// LinearScan tiles, sequential fallback for partitioned inners — are
// deep-equal to their solo executions, per-query I/O included.
func TestTiledBatchMatchesSolo(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	vr := f.ValueRange()
	tiled := map[string]BuildOptions{
		"Tiled-LinearScan":        {Method: MethodLinearScan, TileSide: 16},
		"Tiled-LinearScan+packed": {Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked},
		"Tiled-I-Hilbert":         {Method: MethodIHilbert, TileSide: 16}, // sequential fallback
	}
	for name, opts := range tiled {
		t.Run(name, func(t *testing.T) {
			idx, err := buildIx(f, newPager(), opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			for trial, k := range []int{2, 3, 5, 8} {
				qs := randomQuerySet(rng, vr, k)
				solo := soloResults(t, idx, qs)
				members := make([]BatchQuery, k)
				for i, q := range qs {
					members[i] = BatchQuery{Query: q}
				}
				results, st := idx.QueryBatch(members)
				if st.Size != k || len(results) != k {
					t.Fatalf("trial %d: size %d/%d, want %d", trial, st.Size, len(results), k)
				}
				for i := range results {
					if results[i].Err != nil {
						t.Fatalf("trial %d member %d %v: %v", trial, i, qs[i], results[i].Err)
					}
					if !reflect.DeepEqual(solo[i], results[i].Res) {
						t.Fatalf("trial %d member %d %v: batched result diverges from solo\nsolo:  %+v\nbatch: %+v",
							trial, i, qs[i], solo[i], results[i].Res)
					}
				}
				checkBatchStats(t, st, results)
			}
		})
	}
}

// TestTiledBatchSharesPages: overlapping members share residual tile scans,
// so the batch's physical reads undercut the attributed sum.
func TestTiledBatchSharesPages(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	idx, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	lo := vr.Lo + vr.Length()*0.3
	qs := []geom.Interval{
		{Lo: lo, Hi: lo + vr.Length()*0.2},
		{Lo: lo + vr.Length()*0.05, Hi: lo + vr.Length()*0.25},
		{Lo: lo, Hi: lo + vr.Length()*0.2},
	}
	members := make([]BatchQuery, len(qs))
	for i, q := range qs {
		members[i] = BatchQuery{Query: q}
	}
	results, st := idx.QueryBatch(members)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
	}
	checkBatchStats(t, st, results)
	if st.PagesSaved == 0 {
		t.Errorf("overlapping tiled batch saved no pages (physical %d, attributed %d)",
			st.Physical.Reads, st.AttributedReads)
	}
}
