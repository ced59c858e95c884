package fielddb

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fielddb/internal/geom"
)

func TestSubfieldsPartitionCells(t *testing.T) {
	dem, _ := TerrainDEM(32, 11)
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	subs := db.Subfields()
	if len(subs) == 0 {
		t.Fatal("no subfields")
	}
	seen := make(map[CellID]bool, dem.NumCells())
	for si, s := range subs {
		if len(s.Cells) == 0 {
			t.Fatalf("subfield %d empty", si)
		}
		if s.Interval.IsEmpty() {
			t.Fatalf("subfield %d has empty interval", si)
		}
		for _, id := range s.Cells {
			if seen[id] {
				t.Fatalf("cell %d in two subfields", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != dem.NumCells() {
		t.Fatalf("subfields cover %d of %d cells", len(seen), dem.NumCells())
	}
	// LinearScan has no partition.
	db2, _ := Open(dem, Options{Method: LinearScan})
	if db2.Subfields() != nil {
		t.Fatal("LinearScan returned subfields")
	}
}

func TestConcurrentPointQueries(t *testing.T) {
	// The spatial index path must be safe for concurrent readers (the
	// pager serializes page access internally).
	dem, _ := TerrainDEM(32, 13)
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := geom.Pt(float64((g*53+i*17)%900)+10, float64((g*31+i*29)%900)+10)
				if _, err := db.PointQuery(p); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSaveOpenIndexFacade(t *testing.T) {
	dem, _ := TerrainDEM(16, 5)
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/idx.fidx"
	if err := db.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	si, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if si.Method() != IHilbert {
		t.Fatalf("method = %s", si.Method())
	}
	vr := dem.ValueRange()
	lo, hi := vr.Lo+0.3*vr.Length(), vr.Lo+0.4*vr.Length()
	want, err := db.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := si.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got.CellsMatched != want.CellsMatched || math.Abs(got.Area-want.Area) > 1e-9*(1+want.Area) {
		t.Fatalf("stored index disagrees: %d/%g vs %d/%g",
			got.CellsMatched, got.Area, want.CellsMatched, want.Area)
	}
	if len(si.Subfields()) != len(db.Subfields()) {
		t.Fatal("partition changed across save/open")
	}
	if _, err := si.ValueQuery(2, 1); err == nil {
		t.Fatal("inverted interval accepted")
	}
	// A method without a partition saves too, and the stored scan completes
	// the open-ended queries from the value range its file records.
	scan, _ := Open(dem, Options{Method: LinearScan})
	scanPath := filepath.Join(t.TempDir(), "scan.fdb")
	if err := scan.SaveIndex(scanPath); err != nil {
		t.Fatal(err)
	}
	stored, err := OpenIndex(scanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	if stored.Method() != LinearScan || stored.ValueRange() != scan.ValueRange() {
		t.Fatalf("stored %s over %v, saved LinearScan over %v", stored.Method(), stored.ValueRange(), scan.ValueRange())
	}
	for name, ask := range map[string]func(Querier) (*Result, error){
		"above": func(q Querier) (*Result, error) { return q.ValueAboveContext(context.Background(), lo) },
		"below": func(q Querier) (*Result, error) { return q.ValueBelowContext(context.Background(), hi) },
	} {
		want, err := ask(scan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ask(stored)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the stored scan answers %d cells / %g over %v, the live one %d / %g over %v", name,
				got.CellsMatched, got.Area, got.Query, want.CellsMatched, want.Area, want.Query)
		}
	}
}

func TestContoursFacade(t *testing.T) {
	dem, _ := TerrainDEM(32, 9)
	db, _ := Open(dem, Options{})
	vr := dem.ValueRange()
	lines, err := db.Contours(vr.Lo + vr.Length()/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no contours at median level")
	}
	for _, l := range lines {
		if len(l) < 2 {
			t.Fatalf("degenerate polyline %v", l)
		}
	}
}

func TestApproxValueQueryFacade(t *testing.T) {
	dem, _ := TerrainDEM(16, 5)
	db, _ := Open(dem, Options{})
	ctx := context.Background()
	vr := dem.ValueRange()
	approx, err := db.ApproxValueQueryContext(ctx, vr.Lo, vr.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if approx.CellsUpperBound != dem.NumCells() {
		t.Fatalf("full-range upper bound %d, want %d", approx.CellsUpperBound, dem.NumCells())
	}
	if _, err := db.ApproxValueQueryContext(ctx, 2, 1); err == nil {
		t.Fatal("inverted interval accepted")
	}
	ls, _ := Open(dem, Options{Method: LinearScan})
	if _, err := ls.ApproxValueQueryContext(ctx, vr.Lo, vr.Hi); err == nil {
		t.Fatal("LinearScan approx accepted")
	}
}
