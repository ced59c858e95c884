package fielddb

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTiledFacade opens a terrain with TileSide set, for each codec, and
// checks the facade reports the tiled store: its method name and a tile
// directory covering every cell. (What a tiled store answers is
// FuzzEngineProgram's to check.)
func TestTiledFacade(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Tiles() != nil {
		t.Fatal("untiled DB reports tiles")
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
// the batch routes to the owning tiles, a snapshot stays pinned, and
// ValueAbove reaches the new maximum through the facade's cached range.
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
	if old, err := snap.ValueQuery(lo, hi); err != nil || !reflect.DeepEqual(old, before) {
		t.Fatalf("snapshot drifted from its pin (err %v)", err)
	}
	above, err := db.ValueAbove(vr.Hi + 1)
	if err != nil {
		t.Fatal(err)
	}
	if above.CellsMatched == 0 {
		t.Fatal("new maximum not visible to ValueAbove")
	}
}

// TestTiledFacadeBatch: explicit batched value queries over a tiled DB are
// the solo queries' Results.
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
		{Lo: vr.Hi - vr.Length()*0.05, Hi: vr.Hi},
	}
	batch, err := db.ValueQueryBatch(context.Background(), intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range intervals {
		if solo, err := db.ValueQuery(iv.Lo, iv.Hi); err != nil || !reflect.DeepEqual(batch[i], solo) {
			t.Fatalf("query %d: batch diverges from solo (err %v)", i, err)
		}
	}
}

// TestTiledFacadeSaveOpen round-trips a tiled DB through SaveIndex/OpenIndex:
// the stored index is the tiled store — no subfields — and its batch path
// answers.
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
	db, err := Open(dem, Options{Method: IHilbert, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	if db.Method() != "Tiled-I-Hilbert" {
		t.Fatalf("method = %s", db.Method())
	}
	vr := dem.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55
	got, err := db.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
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
