package core

import (
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// TestTiledLargeTerrain is the scale-out acceptance check on a large terrain:
// at ~1% selectivity the tiled planner answers byte-identically to the
// untiled LinearScan while reading at least 5× fewer pages, because pruned
// tiles cost zero page reads (asserted through the trace spans). It also
// reconciles the pager's cumulative totals against the sum of published
// per-query stats — the scatter-gather layer must not leak unattributed I/O.
func TestTiledLargeTerrain(t *testing.T) {
	side := 1024
	if testing.Short() {
		side = 512
	}
	f := testDEM(t, side, 0.8)
	untiled, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	pager := newPager()
	tiled, err := buildIx(f, pager, BuildOptions{
		Method: MethodLinearScan, TileSide: side / 8, Codec: storage.SidecarCodecPacked, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(8)
	met := obs.NewMetrics()
	tiled.SetObserver(obs.Observer{Tracer: col, Metrics: met})
	// Sequential scatter for the traced query: one scan span per residual
	// tile (the parallel path merges forked spans; FuzzEngineProgram holds its
	// Result, I/O included, to the sequential one's).
	tiled.SetWorkers(1)

	// ~1% selectivity at the top of the range: a narrow band most tiles'
	// summaries exclude.
	vr := f.ValueRange()
	q := geom.Interval{Lo: vr.Hi - vr.Length()*0.01, Hi: vr.Hi}

	base := pager.Stats()
	want, err := untiled.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tiled.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "large-terrain", got, want)

	if want.IO.Reads < 5*got.IO.Reads {
		t.Errorf("tiled read %d pages, untiled %d — want at least 5× fewer",
			got.IO.Reads, want.IO.Reads)
	}
	snap := met.Snapshot()
	if snap.TilesPruned == 0 || snap.TilesScanned == 0 {
		t.Fatalf("prune accounting empty: %d pruned, %d scanned", snap.TilesPruned, snap.TilesScanned)
	}
	if int(snap.TilesPruned+snap.TilesScanned) != len(tiled.Tiles()) {
		t.Errorf("pruned %d + scanned %d != %d tiles",
			snap.TilesPruned, snap.TilesScanned, len(tiled.Tiles()))
	}
	// Pruned tiles read zero pages: the single prune span covers every
	// summary test and charges nothing; only scanned tiles open scan spans.
	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces", len(traces))
	}
	var pruneSpans, scanSpans, spanReads int
	for _, sp := range traces[0].Spans {
		switch sp.Phase {
		case obs.PhaseTilePrune:
			pruneSpans++
			if sp.Pages.Reads != 0 {
				t.Errorf("prune span read %d pages", sp.Pages.Reads)
			}
		case obs.PhaseTileScan:
			scanSpans++
		}
		spanReads += sp.Pages.Reads
	}
	if pruneSpans != 1 {
		t.Errorf("%d prune spans, want 1", pruneSpans)
	}
	if scanSpans != int(snap.TilesScanned) {
		t.Errorf("%d scan spans, %d tiles scanned", scanSpans, snap.TilesScanned)
	}
	if spanReads != got.IO.Reads {
		t.Errorf("spans account %d reads, query published %d", spanReads, got.IO.Reads)
	}
	// The store's totals moved by exactly the published per-query stats.
	delta := pager.Stats().Reads - base.Reads
	if delta != got.IO.Reads {
		t.Errorf("pager totals moved %d, published %d", delta, got.IO.Reads)
	}
}
