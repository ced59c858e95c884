package core

import (
	"reflect"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// assertSameAnswer asserts that the tiled answer got is byte-identical to
// want, a scan's fold in tile order — same matched set, same fold order, same
// float accumulation — and is the untiled scan's answer as a set, with the
// same counts.
func assertSameAnswer(t *testing.T, label string, got, want, untiled *Result) {
	t.Helper()
	if d := setDiff(got, untiled, false); d != "" {
		t.Errorf("%s: %s, the tiled answer's against the untiled scan's", label, d)
	}
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
	assertSameAnswer(t, "pruned", got, foldIn(f, foldOrder(f, 16), q), want)

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

// TestTiledUpdates: on tiles of both inner methods — LinearScan's with packed
// sidecars —, updates route to the owning tiles and commit as one epoch, live
// answers follow the mutated field, and a snapshot keeps reading the
// pre-update state.
func TestTiledUpdates(t *testing.T) {
	for _, opts := range []BuildOptions{
		{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked},
		{Method: MethodIHilbert, TileSide: 16},
	} {
		runOn(t, "dem", rowOf("Tiled-"+string(opts.Method), opts),
			step{opSnapshot, 100, 50, 9}, step{opUpdate, 11, 3, 4}, step{opQuery, 100, 50, 0},
			step{opQuery, 230, 100, 0}, step{opUpdate, 4, 5, 6}, step{opAggregate, 0, 255, 0})
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
