package fielddb

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTiledFacade opens a terrain with TileSide set and checks answers are
// byte-identical to the untiled build of the same method, for both codecs.
func TestTiledFacade(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	queries := [][2]float64{
		{vr.Lo + vr.Length()*0.45, vr.Lo + vr.Length()*0.55},
		{vr.Hi - vr.Length()*0.02, vr.Hi},
		{vr.Lo, vr.Lo + vr.Length()*0.1},
	}
	for _, codec := range []string{"", "raw", "packed"} {
		db, err := Open(dem, Options{Method: LinearScan, TileSide: 16, SidecarCodec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if db.Method() != "Tiled-LinearScan" {
			t.Fatalf("codec %q: method = %s", codec, db.Method())
		}
		tiles := db.Tiles()
		if len(tiles) != 16 { // 64/16 = 4 per axis
			t.Fatalf("codec %q: %d tiles", codec, len(tiles))
		}
		cells := 0
		for _, ti := range tiles {
			cells += ti.Cells
			if ti.ValueRange.Lo > ti.ValueRange.Hi {
				t.Fatalf("codec %q: inverted tile summary %+v", codec, ti)
			}
		}
		if cells != dem.NumCells() {
			t.Fatalf("codec %q: tiles cover %d of %d cells", codec, cells, dem.NumCells())
		}
		for _, q := range queries {
			want, err := flat.ValueQuery(q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.ValueQuery(q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.CellsMatched != want.CellsMatched || got.Area != want.Area ||
				len(got.Regions) != len(want.Regions) {
				t.Fatalf("codec %q: query %v: got %d cells area %g, want %d cells area %g",
					codec, q, got.CellsMatched, got.Area, want.CellsMatched, want.Area)
			}
		}
		if flat.Tiles() != nil {
			t.Fatal("untiled DB reports tiles")
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTiledFacadeValidation covers the ErrBadTiling option combinations.
func TestTiledFacadeValidation(t *testing.T) {
	dem, _ := TerrainDEM(16, 1)
	bad := []Options{
		{TileSide: 1},
		{TileSide: 8, Method: Auto},
		{TileSide: 8, Method: IAll},
		{SidecarCodec: "bogus"},
	}
	for _, opts := range bad {
		if _, err := Open(dem, opts); !errors.Is(err, ErrBadTiling) {
			t.Errorf("opts %+v: err = %v, want ErrBadTiling", opts, err)
		}
	}
}

// TestTiledFacadeUpdatesAndSnapshot runs UpdateSamples against a tiled DB:
// the batch routes to the owning tiles, snapshots stay pinned, and post-batch
// answers match a fresh untiled database over the mutated field.
func TestTiledFacadeUpdatesAndSnapshot(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: LinearScan, TileSide: 16, SidecarCodec: "packed"})
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55
	before, err := db.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	nx := 65
	updates := []SampleUpdate{
		{Sample: 8*nx + 8, Value: vr.Hi + 10},
		{Sample: 8*nx + 56, Value: vr.Lo - 10},
		{Sample: 56*nx + 8, Value: (vr.Lo + vr.Hi) / 2},
	}
	us, err := db.UpdateSamples(context.Background(), updates)
	if err != nil {
		t.Fatal(err)
	}
	if us.CellsTouched == 0 {
		t.Fatalf("empty update stats %+v", us)
	}

	// The pinned snapshot still answers the pre-batch state.
	old, err := snap.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if old.CellsMatched != before.CellsMatched || old.Area != before.Area {
		t.Fatalf("snapshot drifted: %d/%g, want %d/%g",
			old.CellsMatched, old.Area, before.CellsMatched, before.Area)
	}

	// Live answers match a fresh untiled database over the mutated field.
	fresh, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{lo, hi}, {vr.Lo - 10, vr.Lo}, {vr.Hi, vr.Hi + 10}} {
		want, err := fresh.ValueQuery(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.ValueQuery(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.CellsMatched != want.CellsMatched || got.Area != want.Area {
			t.Fatalf("query %v after update: got %d/%g, want %d/%g",
				q, got.CellsMatched, got.Area, want.CellsMatched, want.Area)
		}
	}
	// ValueAbove picks up the new maximum through the widened cached range.
	above, err := db.ValueAbove(vr.Hi + 1)
	if err != nil {
		t.Fatal(err)
	}
	if above.CellsMatched == 0 {
		t.Fatal("new maximum not visible to ValueAbove")
	}
}

// TestTiledFacadeBatch: explicit batched value queries over a tiled DB are
// byte-identical to solo queries.
func TestTiledFacadeBatch(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: LinearScan, TileSide: 16, SidecarCodec: "packed"})
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	intervals := []Interval{
		{Lo: vr.Lo + vr.Length()*0.40, Hi: vr.Lo + vr.Length()*0.50},
		{Lo: vr.Lo + vr.Length()*0.45, Hi: vr.Lo + vr.Length()*0.55},
		{Lo: vr.Hi - vr.Length()*0.05, Hi: vr.Hi},
	}
	batch, err := db.ValueQueryBatch(context.Background(), intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range intervals {
		solo, err := db.ValueQuery(iv.Lo, iv.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].CellsMatched != solo.CellsMatched || batch[i].Area != solo.Area ||
			batch[i].IO != solo.IO {
			t.Fatalf("query %d: batch %+v, solo %+v", i, batch[i].IO, solo.IO)
		}
	}
}

// TestTiledFacadeSaveOpen round-trips a tiled DB through SaveIndex/OpenIndex:
// the stored index dispatches to the tiled decoder and answers identically.
func TestTiledFacadeSaveOpen(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: LinearScan, TileSide: 16, SidecarCodec: "packed"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiled.fidx")
	if err := db.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	stored, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	if stored.Method() != "Tiled-LinearScan" {
		t.Fatalf("stored method = %s", stored.Method())
	}
	if sf := stored.Subfields(); sf != nil {
		t.Fatalf("tiled stored index reports %d subfields", len(sf))
	}
	vr := dem.ValueRange()
	for _, q := range [][2]float64{
		{vr.Lo + vr.Length()*0.45, vr.Lo + vr.Length()*0.55},
		{vr.Hi - vr.Length()*0.02, vr.Hi},
	} {
		want, err := db.ValueQuery(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := stored.ValueQuery(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.CellsMatched != want.CellsMatched ||
			math.Abs(got.Area-want.Area) > 1e-9*(1+want.Area) {
			t.Fatalf("query %v: stored %d/%g, want %d/%g",
				q, got.CellsMatched, got.Area, want.CellsMatched, want.Area)
		}
	}
	// The stored batch path works on tiled files too.
	res, err := stored.ValueQueryBatch(context.Background(), []Interval{
		{Lo: vr.Lo + vr.Length()*0.45, Hi: vr.Lo + vr.Length()*0.50},
		{Lo: vr.Lo + vr.Length()*0.48, Hi: vr.Lo + vr.Length()*0.53},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil || r.CellsMatched == 0 {
			t.Fatalf("batch result %d empty", i)
		}
	}
}

// TestTiledFacadeIHilbertInner: a partitioned inner method tiles through the
// facade too, and saves like any other.
func TestTiledFacadeIHilbertInner(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: IHilbert, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	if db.Method() != "Tiled-I-Hilbert" {
		t.Fatalf("method = %s", db.Method())
	}
	vr := dem.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55
	want, err := flat.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got.CellsMatched != want.CellsMatched || got.Area != want.Area {
		t.Fatalf("got %d/%g, want %d/%g", got.CellsMatched, got.Area, want.CellsMatched, want.Area)
	}
	// Every tile's subfield tree rides in its partition record.
	path := filepath.Join(t.TempDir(), "x.fidx")
	if err := db.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	stored, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	if again, err := stored.ValueQuery(lo, hi); err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("the stored %s answers differently from the live one (err %v)", stored.Method(), err)
	}
}
