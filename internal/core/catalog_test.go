package core

import (
	"context"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

func rstarEntryForTest() rstar.Entry {
	return rstar.Entry{MBR: rstar.Interval1D(0, 1), Data: 1}
}

func TestSaveOpenRoundtrip(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "terrain.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Method() != MethodIHilbert {
		t.Fatalf("method = %s", opened.Method())
	}
	bs, os_ := built.Stats(), opened.Stats()
	if bs.Cells != os_.Cells || bs.CellPages != os_.CellPages ||
		bs.IndexPages != os_.IndexPages || bs.Groups != os_.Groups || bs.TreeHeight != os_.TreeHeight {
		t.Fatalf("stats changed: built %+v, opened %+v", bs, os_)
	}
	// Queries over the reopened file agree with the in-memory index and
	// with brute force.
	rng := rand.New(rand.NewSource(21))
	vr := f.ValueRange()
	for trial := 0; trial < 20; trial++ {
		lo := vr.Lo + rng.Float64()*vr.Length()
		q := geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.1}
		want, wantArea := bruteForce(f, q)
		r1, err := built.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.CellsMatched != len(want) || r2.CellsMatched != len(want) {
			t.Fatalf("query %v: matched %d / %d, want %d", q, r1.CellsMatched, r2.CellsMatched, len(want))
		}
		if math.Abs(r2.Area-wantArea) > 1e-6*(1+wantArea) {
			t.Fatalf("query %v: area %g, want %g", q, r2.Area, wantArea)
		}
		// Same filter selectivity, same physical page runs.
		if r1.CandidateGroups != r2.CandidateGroups || r1.CellsFetched != r2.CellsFetched {
			t.Fatalf("pipeline differs: %d/%d groups, %d/%d cells",
				r1.CandidateGroups, r2.CandidateGroups, r1.CellsFetched, r2.CellsFetched)
		}
	}
	// The subfield partition survives the roundtrip.
	count := 0
	opened.ForEachGroup(func(_ int, iv geom.Interval, cells []field.CellID) bool {
		count += len(cells)
		return true
	})
	if count != f.NumCells() {
		t.Fatalf("reopened groups cover %d of %d cells", count, f.NumCells())
	}
}

func TestSaveFileRefusesNonEmpty(t *testing.T) {
	f := testDEM(t, 8, 0.5)
	built, _ := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	path := filepath.Join(t.TempDir(), "x.fidx")
	if err := os.WriteFile(path, make([]byte, storage.DefaultPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := built.SaveFile(path); err == nil {
		t.Fatal("non-empty target accepted")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != storage.DefaultPageSize {
		t.Fatalf("the refused save touched a file it did not create: %v", err)
	}
}

// TestFailedSaveLeavesNoFile: a save that dies after creating its file — the
// snapshot source fails mid-copy — removes it, so the retry finds the path
// free instead of a partial file it must refuse as not empty.
func TestFailedSaveLeavesNoFile(t *testing.T) {
	f := testDEM(t, 8, 0.5)
	disk := &failingDisk{Disk: storage.NewMemDisk(storage.DefaultPageSize)}
	built, err := buildIx(f, storage.NewPager(disk, storage.DefaultDiskModel, 0), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "retry.fidx")
	disk.fail.Store(true)
	if err := built.SaveFile(path); !errors.Is(err, errInjected) {
		t.Fatalf("save from a failing disk: %v, want the injected error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed save left its file behind (stat: %v)", err)
	}
	disk.fail.Store(false)
	if err := built.SaveFile(path); err != nil {
		t.Fatalf("retry after the failed save: %v", err)
	}
	opened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	q := f.ValueRange()
	want, _ := bruteForce(f, q)
	if res, err := opened.Query(q); err != nil || res.CellsMatched != len(want) {
		t.Fatalf("reopened after retry: %v, %d cells of %d", err, res.CellsMatched, len(want))
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// Not a multiple of the page size.
	bad1 := filepath.Join(dir, "bad1")
	os.WriteFile(bad1, []byte("short"), 0o644)
	if _, err := openIx(bad1, 0); err == nil {
		t.Fatal("short file accepted")
	}
	// Page-aligned zeros: bad superblock magic.
	bad2 := filepath.Join(dir, "bad2")
	os.WriteFile(bad2, make([]byte, 2*storage.DefaultPageSize), 0o644)
	if _, err := openIx(bad2, 0); err == nil {
		t.Fatal("zero file accepted")
	}
}

func TestOpenedFileIsReadOnly(t *testing.T) {
	f := testDEM(t, 8, 0.5)
	built, _ := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	path := filepath.Join(t.TempDir(), "ro.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The reopened tree is a paged-only handle.
	tree := opened.snap.Load().tree
	if !tree.IsPagedOnly() {
		t.Fatal("reopened tree not paged-only")
	}
	if err := tree.Insert(rstarEntryForTest()); err == nil {
		t.Fatal("insert into paged-only tree accepted")
	}
}

func TestOpenFileRejectsTamperedCatalog(t *testing.T) {
	f := testDEM(t, 8, 0.5)
	built, _ := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	path := filepath.Join(t.TempDir(), "tampered.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the catalog region (just before the
	// superblock) and expect a decode error, not a panic.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := storage.DefaultPageSize
	catStart := len(raw) - 2*ps // last catalog page
	for i := 0; i < 64; i++ {
		raw[catStart+16+i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openIx(path, 0); err == nil {
		t.Fatal("tampered catalog accepted")
	}
}

func TestApproxQuery(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	p, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	vr := f.ValueRange()
	q := geom.Interval{Lo: vr.Lo + 0.3*vr.Length(), Hi: vr.Lo + 0.4*vr.Length()}
	approx, err := p.ApproxQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The approximate cell count is an upper bound on the exact match count.
	if approx.CellsUpperBound < exact.CellsMatched {
		t.Fatalf("upper bound %d below exact %d", approx.CellsUpperBound, exact.CellsMatched)
	}
	if approx.Groups != exact.CandidateGroups {
		t.Fatalf("groups %d vs %d", approx.Groups, exact.CandidateGroups)
	}
	// No cell pages touched: I/O limited to the small R*-tree.
	if approx.IO.Reads >= exact.IO.Reads {
		t.Fatalf("approx read %d pages, exact %d", approx.IO.Reads, exact.IO.Reads)
	}
	if approx.IO.Reads > p.Stats().IndexPages+1 {
		t.Fatalf("approx read %d pages, index has %d", approx.IO.Reads, p.Stats().IndexPages)
	}
	// The summary average of the selected subfields lies inside (a modest
	// widening of) the query interval's neighborhood: selected groups may
	// legitimately straddle the query, so just require a finite value inside
	// the field's range.
	if math.IsNaN(approx.AvgValue) || approx.AvgValue < vr.Lo || approx.AvgValue > vr.Hi {
		t.Fatalf("avg %g outside field range %v", approx.AvgValue, vr)
	}
	// Out-of-range query: no groups, NaN average.
	miss, err := p.ApproxQueryContext(context.Background(), geom.Interval{Lo: vr.Hi + 10, Hi: vr.Hi + 20})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Groups != 0 || !math.IsNaN(miss.AvgValue) {
		t.Fatalf("out-of-range approx = %+v", miss)
	}
	if _, err := p.ApproxQueryContext(context.Background(), geom.EmptyInterval()); err == nil {
		t.Fatal("empty query accepted")
	}
	// The summaries survive a save/open roundtrip.
	path := filepath.Join(t.TempDir(), "avg.fidx")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reopened.ApproxQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again.CellsUpperBound != approx.CellsUpperBound || math.Abs(again.AvgValue-approx.AvgValue) > 1e-12 {
		t.Fatalf("approx changed across roundtrip: %+v vs %+v", again, approx)
	}
}

// TestCatalogHostileCounts: every count in a catalog is read out of a file, so
// a lying one must fail Open with an error — not size an allocation. Each row
// is a well-formed superblock over a catalog whose header passes
// checkCatalogHeader and whose body claims far more elements than its bytes
// can hold; the last is a real catalog cut short.
func TestCatalogHostileCounts(t *testing.T) {
	le := binary.LittleEndian
	head := func(tiles uint32, method string) []byte {
		b := le.AppendUint32(append([]byte(nil), catalogMagic[:]...), catalogVersion)
		b = le.AppendUint32(b, tiles)
		return append(le.AppendUint16(b, uint16(len(method))), method...)
	}
	// Untiled: cells = groups = 1<<40 over one heap page.
	untiled := le.AppendUint64(head(0, "I-Hilbert"), 1<<40)
	untiled = le.AppendUint32(le.AppendUint64(untiled, 1), 0)
	untiled = append(untiled, make([]byte, 12)...) // tree root, nodes, height
	untiled = le.AppendUint64(untiled, 1<<40)
	// Tiled: 1<<30 cells (the largest the header admits) in one tile.
	tiledHead := func(cells uint64) []byte {
		b := le.AppendUint16(head(1, "LinearScan"), 0) // no codec
		b = le.AppendUint32(b, 64)                     // tile side
		return le.AppendUint64(le.AppendUint64(b, cells), 0)
	}
	// Tiled: a plausible header, then a tile of one cell on 1<<28 heap pages.
	tiledPages := append(tiledHead(1), make([]byte, 48)...) // MBR, value summary
	tiledPages = le.AppendUint32(le.AppendUint64(tiledPages, 1), 0)
	tiledPages = le.AppendUint64(tiledPages, 1<<28)
	tiledPages = append(tiledPages, make([]byte, minTileLen)...)

	ps := storage.DefaultPageSize
	dir := t.TempDir()
	write := func(name string, blob []byte) string {
		raw := make([]byte, 3*ps) // a heap page, the catalog page, the superblock
		copy(raw[ps:], blob)
		super := raw[2*ps:]
		copy(super, superblockMagic[:])
		le.PutUint32(super[4:], catalogVersion)
		le.PutUint32(super[8:], 1)  // catalog start
		le.PutUint32(super[12:], 1) // catalog pages
		le.PutUint64(super[16:], uint64(len(blob)))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Truncated: a saved index whose superblock declares half its catalog.
	built, _ := buildIx(testDEM(t, 8, 0.5), newPager(), BuildOptions{Method: MethodIHilbert})
	truncated := filepath.Join(dir, "truncated")
	if err := built.SaveFile(truncated); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	blobLen := raw[len(raw)-ps+16 : len(raw)-ps+24]
	le.PutUint64(blobLen, le.Uint64(blobLen)/2)
	if err := os.WriteFile(truncated, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Not a permutation: the same saved index with its second cell-order entry
	// overwritten by the first, so one cell has two heap positions.
	dupOrder := filepath.Join(dir, "dup-order")
	if err := built.SaveFile(dupOrder); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(dupOrder); err != nil {
		t.Fatal(err)
	}
	cat := raw[int(le.Uint32(raw[len(raw)-ps+8:]))*ps:]
	order := catalogHeaderLen + 2 + len(MethodIHilbert) + 8 + 8 + 4*built.heap.NumPages() + 12 +
		8 + groupMetaLen*len(built.cur().groups)
	copy(cat[order+4:order+8], cat[order:order+4])
	if err := os.WriteFile(dupOrder, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, path string }{
		{"cell order names a cell twice", dupOrder},
		{"untiled cells and groups", write("untiled", untiled)},
		{"tiled cells", write("tiled-cells", tiledHead(1<<30))},
		{"tiled heap pages", write("tiled-pages", tiledPages)},
		{"truncated", truncated},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := Open(tc.path, 0)
		runtime.ReadMemStats(&after)
		if err == nil {
			eng.Close()
			t.Errorf("%s: hostile catalog opened", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Open allocated %d bytes before refusing", tc.name, grew)
		}
	}
}
