package core

import (
	"context"
	"path/filepath"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// TestTiledSaveOpenRoundtrip saves a tiled build, reopens it, and checks the
// opened planner answers byte-identically — and still prunes from the
// persisted per-tile value summaries without touching any pages.
func TestTiledSaveOpenRoundtrip(t *testing.T) {
	for _, codec := range []string{storage.SidecarCodecRaw, storage.SidecarCodecPacked} {
		f := testDEM(t, 64, 0.7)
		built, err := buildTiles(f, newPager(), BuildOptions{TileSide: 16, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tiled-"+codec+".fidx")
		if err := built.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		opened, err := openTiles(path, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if opened.NumTiles() != built.NumTiles() {
			t.Fatalf("%s: opened %d tiles, want %d", codec, opened.NumTiles(), built.NumTiles())
		}
		if opened.Method() != built.Method() {
			t.Fatalf("%s: method %s, want %s", codec, opened.Method(), built.Method())
		}
		// Byte-identical answers against both the in-memory tiled build and a
		// fresh untiled scan.
		ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tiledTestQueries(f) {
			want, err := ls.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := built.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opened.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, codec+"/opened-vs-untiled", got, want)
			if mem.CandidateGroups != got.CandidateGroups {
				t.Errorf("%s: query %v scans %d tiles opened, %d in memory",
					codec, q, got.CandidateGroups, mem.CandidateGroups)
			}
		}
		// The persisted summaries still drive the pruner: a narrow high-tail
		// band skips tiles, and the prune span reads zero pages.
		col := obs.NewCollector(4)
		met := obs.NewMetrics()
		opened.SetObserver(obs.Observer{Tracer: col, Metrics: met})
		vr := f.ValueRange()
		q := geom.Interval{Lo: vr.Hi - vr.Length()*0.02, Hi: vr.Hi}
		res, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		snap := met.Snapshot()
		if snap.TilesPruned == 0 {
			t.Errorf("%s: no tiles pruned on the opened index", codec)
		}
		if snap.TilesPruned+snap.TilesScanned != int64(opened.NumTiles()) {
			t.Errorf("%s: pruned %d + scanned %d != %d tiles",
				codec, snap.TilesPruned, snap.TilesScanned, opened.NumTiles())
		}
		if res.CandidateGroups != int(snap.TilesScanned) {
			t.Errorf("%s: CandidateGroups %d, scanned %d", codec, res.CandidateGroups, snap.TilesScanned)
		}
		traces := col.Traces()
		if len(traces) != 1 {
			t.Fatalf("%s: %d traces", codec, len(traces))
		}
		pruneSpans := 0
		for _, sp := range traces[0].Spans {
			if sp.Phase == obs.PhaseTilePrune {
				pruneSpans++
				if sp.Pages.Reads != 0 {
					t.Errorf("%s: prune span read %d pages", codec, sp.Pages.Reads)
				}
			}
		}
		if pruneSpans != 1 {
			t.Errorf("%s: %d prune spans, want 1", codec, pruneSpans)
		}
	}
}

// TestTiledOpenUpdates applies an update batch to a file-opened tiled index:
// the planner reattaches the caller's field to the owning tiles and answers
// like a fresh build over the mutated terrain.
func TestTiledOpenUpdates(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	built, err := buildTiles(f, newPager(), BuildOptions{TileSide: 16, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiled.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openTiles(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := opened.pager.CurrentEpoch()
	vr := f.ValueRange()
	nx := 65 // 64 cells -> 65 vertices per row
	updates := []SampleUpdate{
		{Sample: 12*nx + 12, Value: vr.Hi + 4},
		{Sample: 12*nx + 52, Value: vr.Lo - 4},
		{Sample: 52*nx + 52, Value: (vr.Lo + vr.Hi) / 2},
	}
	ur, err := opened.ApplyUpdates(context.Background(), f, updates)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != epoch0+1 {
		t.Errorf("update committed at epoch %d, want %d", ur.Epoch, epoch0+1)
	}
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tiledTestQueries(f) {
		want, err := ls.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, "opened/after-update", got, want)
	}
}

// TestOpenStoredDispatch covers the file-kind dispatch of Open.
func TestOpenStoredDispatch(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	dir := t.TempDir()

	tiled, err := buildTiles(f, newPager(), BuildOptions{TileSide: 8, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	tiledPath := filepath.Join(dir, "tiled.fidx")
	if err := tiled.SaveFile(tiledPath); err != nil {
		t.Fatal(err)
	}

	flat, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, "flat.fidx")
	if err := flat.SaveFile(flatPath); err != nil {
		t.Fatal(err)
	}

	// The dispatcher picks the right decoder for each file kind.
	idx, err := Open(tiledPath, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*TiledIndex); !ok {
		t.Fatalf("tiled file opened as %T", idx)
	}
	idx, err = Open(flatPath, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*executor); !ok {
		t.Fatalf("untiled file opened as %T", idx)
	}
}

// TestTiledSaveFileRejectsPartitionedInner: only Tiled-LinearScan has an
// on-disk format.
func TestTiledSaveFileRejectsPartitionedInner(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	ti, err := buildTiles(f, newPager(), BuildOptions{TileSide: 8, Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	if err := ti.SaveFile(filepath.Join(t.TempDir(), "x.fidx")); err == nil {
		t.Fatal("Tiled-IHilbert save accepted")
	}
}

// TestSaveOpenPackedSidecar round-trips an untiled index carrying the packed
// codec — the version-4 codec tail — and checks the reopened sidecar really
// is packed, not silently downgraded to raw.
func TestSaveOpenPackedSidecar(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert, Codec: storage.SidecarCodecPacked})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "packed.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if opened.sidecar == nil || opened.sidecar.Codec() != storage.SidecarCodecPacked {
		t.Fatal("packed sidecar did not survive the roundtrip")
	}
	if opened.sidecar.NumPages() != built.sidecar.NumPages() {
		t.Fatalf("sidecar pages %d, want %d", opened.sidecar.NumPages(), built.sidecar.NumPages())
	}
	for _, q := range tiledTestQueries(f) {
		want, err := built.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, "packed-untiled", got, want)
		if got.IO.Reads != want.IO.Reads {
			t.Errorf("query %v: %d reads opened, %d built", q, got.IO.Reads, want.IO.Reads)
		}
	}
}
