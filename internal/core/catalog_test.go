package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/obs"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

func rstarEntryForTest() rstar.Entry {
	return rstar.Entry{MBR: rstar.Interval1D(0, 1), Data: 1}
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
	// An empty file is a destination the caller reserved, not content.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := built.SaveFile(path); err != nil {
		t.Fatalf("save over the caller's empty file: %v", err)
	}
	opened, err := openIx(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	opened.Close()
}

// TestFailedSaveLeavesNoFile: a save writes under a temporary name and renames
// once complete, so one that dies mid-copy — the snapshot source fails at its
// k-th page read, for every k — leaves the directory exactly as it found it:
// no destination where there was none, the caller's empty file where there was
// one, no temporary file either way. The retry then succeeds.
func TestFailedSaveLeavesNoFile(t *testing.T) {
	f := testDEM(t, 8, 0.5)
	disk := &failingDisk{Disk: storage.NewMemDisk(storage.DefaultPageSize)}
	pager := storage.NewPager(disk, storage.DefaultDiskModel, 0)
	built, err := buildIx(f, pager, BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	for _, reserved := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "retry.fidx")
		files := 0
		if reserved {
			if err := os.WriteFile(path, nil, 0o600); err != nil {
				t.Fatal(err)
			}
			files = 1
		}
		for k := 1; k <= pager.NumPages(); k++ {
			disk.spare.Store(int64(k - 1))
			disk.fail.Store(true)
			err := built.SaveFile(path)
			disk.fail.Store(false)
			if !errors.Is(err, errInjected) {
				t.Fatalf("save failing at read %d: %v, want the injected error", k, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != files {
				t.Fatalf("save failing at read %d left %d files in the directory, want %d", k, len(entries), files)
			}
			if st, err := os.Stat(path); reserved && (err != nil || st.Size() != 0) {
				t.Fatalf("save failing at read %d touched the reserved destination (stat: %v)", k, err)
			} else if !reserved && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("save failing at read %d left its file behind (stat: %v)", k, err)
			}
		}
		if err := built.SaveFile(path); err != nil {
			t.Fatalf("retry after the failed saves: %v", err)
		}
		opened, err := openIx(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := f.ValueRange()
		want, _ := bruteForce(f, q)
		if res, err := opened.Query(q); err != nil || res.CellsMatched != len(want) {
			t.Fatalf("reopened after retry: %v, %d cells of %d", err, res.CellsMatched, len(want))
		}
		opened.Close()
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

// TestOpenRefusesTruncatedFile: a torn save is detected, never served. Every
// prefix of a saved file that ends on a page boundary, or one byte to either
// side of one, makes Open return an error — no panic, no Engine.
func TestOpenRefusesTruncatedFile(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	for name, opts := range map[string]BuildOptions{
		"I-Hilbert":               {Method: MethodIHilbert},
		"Tiled-LinearScan+packed": {Method: MethodLinearScan, TileSide: 8, Codec: storage.SidecarCodecPacked},
	} {
		t.Run(name, func(t *testing.T) {
			built, err := Build(context.Background(), f, newPager(), opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			whole := filepath.Join(dir, "whole.fidx")
			if err := built.SaveFile(whole); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(whole)
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(dir, "torn.fidx")
			for boundary := 0; boundary <= len(data); boundary += storage.DefaultPageSize {
				for _, n := range []int{boundary - 1, boundary, boundary + 1} {
					if n < 0 || n >= len(data) {
						continue
					}
					if err := os.WriteFile(torn, data[:n], 0o644); err != nil {
						t.Fatal(err)
					}
					if eng, err := Open(torn, 0); err == nil {
						eng.Close()
						t.Fatalf("Open served the first %d of the file's %d bytes", n, len(data))
					}
				}
			}
		})
	}
}

// TestQueryFailsOnFileTruncatedAfterOpen: a file cut short under an open
// index — a page torn mid-way, the pages after it gone — fails every query
// that reaches past the cut with io.ErrUnexpectedEOF and leaves the answers
// of the rest as they were: an error, never a wrong answer.
func TestQueryFailsOnFileTruncatedAfterOpen(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	built, _ := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	path := filepath.Join(t.TempDir(), "cut.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(path, 0) // no pool: every query reads the file
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	queries := append(tiledTestQueries(f), f.ValueRange())
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 2*storage.DefaultPageSize+10); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("query %v: %v, want io.ErrUnexpectedEOF", q, err)
		} else if err == nil && !reflect.DeepEqual(res, want[i]) {
			t.Fatalf("query %v answered differently from the whole file", q)
		} else if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no query reached past the cut; the case is vacuous")
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
	tree := opened.snap.Load().parts[0].tree
	if !tree.IsPagedOnly() {
		t.Fatal("reopened tree not paged-only")
	}
	if err := tree.Insert(rstarEntryForTest()); err == nil {
		t.Fatal("insert into paged-only tree accepted")
	}
}

// TestOpenedStoreReadersBesideUpdates: readers of a file-opened tiled store run
// while update batches commit. The pool holds 64 pages, so nearly every read
// reaches the file, and each query fans out on up to four workers: the file's
// readers share it without a lock while the batches allocate tree pages past
// it, in memory. Every snapshot pinned along the way answers as it did when
// acquired, no reader fails, the pager's totals move by exactly what the calls
// published, and the file's bytes never change. Meant for -race.
func TestOpenedStoreReadersBesideUpdates(t *testing.T) {
	atLeastProcs(t, 4)
	ctx := context.Background()
	f := testDEM(t, 64, 0.7)
	built, err := Build(ctx, f, newPager(), BuildOptions{Method: MethodIHilbert, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := openIx(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetWorkers(4)
	queries := tiledTestQueries(f)

	type pinned struct {
		eng  Engine
		want []*Result
	}
	var (
		mu    sync.Mutex
		pub   storage.Stats
		snaps []*pinned
	)
	publish := func(st storage.Stats) { mu.Lock(); pub = pub.Add(st); mu.Unlock() }
	query := func(e Engine, q geom.Interval) (*Result, error) {
		res, err := e.QueryContext(ctx, q)
		if err == nil {
			publish(res.IO)
		}
		return res, err
	}
	pin := func() {
		p := &pinned{eng: eng.AcquireSnapshot()}
		for _, q := range queries {
			res, err := query(p.eng, q)
			if err != nil {
				t.Fatal(err)
			}
			p.want = append(p.want, res)
		}
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}
	before := eng.pager.Stats()
	pin()
	done := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				p := snaps[rng.Intn(len(snaps))]
				mu.Unlock()
				i := rng.Intn(len(queries))
				got, err := query(p.eng, queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, p.want[i]) {
					t.Errorf("a snapshot at epoch %d answers %v with %d cells, %v; pinned %d cells, %v",
						p.eng.Epoch(), queries[i], got.CellsMatched, got.IO, p.want[i].CellsMatched, p.want[i].IO)
					return
				}
				if _, err := query(eng, queries[rng.Intn(len(queries))]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	vr := f.ValueRange()
	for range 12 {
		updates := make([]SampleUpdate, 8)
		for i := range updates {
			updates[i] = SampleUpdate{Sample: rng.Intn(f.NumSamples()), Value: vr.Lo + rng.Float64()*vr.Length()}
		}
		res, err := eng.ApplyUpdates(ctx, f, updates)
		if err != nil {
			t.Fatal(err)
		}
		publish(res.IO)
		pin()
	}
	stop()
	for _, p := range snaps {
		for i, q := range queries {
			if got, err := query(p.eng, q); err != nil || !reflect.DeepEqual(got, p.want[i]) {
				t.Fatalf("after the updates, the snapshot at epoch %d answers %v differently (%v)", p.eng.Epoch(), q, err)
			}
		}
		p.eng.Close()
	}
	if got := eng.pager.Stats().Sub(before); got != pub {
		t.Fatalf("the pager's totals moved by %v, the calls published %v", got, pub)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, saved) {
		t.Fatalf("the updates changed the opened file (%v)", err)
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

// gridRecordLen is the catalog header's locator record for a DEM: nx, ny and
// four f64.
const gridRecordLen = 2*4 + 4*8

// hostileCatalogs returns catalog blobs Open must refuse, over a data region of
// the returned size: each is the real catalog of a small I-Hilbert or
// LinearScan index, or of a TIN's I-Hilbert index, with one count, page
// reference or locator entry overwritten by a lie, or a hand-built header
// claiming far more elements than its bytes can hold.
func hostileCatalogs(t testing.TB) (dataPages int, blobs map[string][]byte) {
	le := binary.LittleEndian
	dem := testDEM(t, 8, 0.5)
	built, err := buildIx(dem, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := buildIx(dem, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := buildIx(testTIN(t, 40), newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	real, scanReal, meshReal := built.encodeCatalog(), scan.encodeCatalog(), mesh.encodeCatalog()
	dataPages = max(built.pager.NumPages(), scan.pager.NumPages(), mesh.pager.NumPages())
	// Offsets into the real catalogs: the header's tail, then the one record.
	codec := catalogHeaderLen + 2 + len(MethodIHilbert)
	grid := codec + 2 + 4 + 8
	record := grid + gridRecordLen + 8 + 8 + 4
	summary := record - 12
	ids := record + 7*8 + 8
	heapPages := ids + 4*built.cells + 8
	tree := heapPages + 2*4*built.parts[0].heap.NumPages()
	groups := tree + 12
	if want := groups + 8 + groupMetaLen*len(built.cur().parts[0].groups); want != len(real) {
		t.Fatalf("the test's catalog layout ends at %d, the encoder's at %d", want, len(real))
	}
	sidecar := catalogHeaderLen + 2 + len(MethodLinearScan) + 2 + len(storage.SidecarCodecRaw) + 4 + 8 + gridRecordLen + 8 + 8 + 4 +
		7*8 + 8 + 4*scan.cells + 8 + 2*4*scan.parts[0].heap.NumPages()
	if want := sidecar + 8; want != len(scanReal) {
		t.Fatalf("the test's LinearScan catalog layout ends at %d, the encoder's at %d", want, len(scanReal))
	}
	// The TIN's locator record: 0, 0, then the buckets.
	bk := mesh.finder.(*buckets)
	side := grid + 8
	bounds := side + 4
	offsets := bounds + 4*8
	bucketIDs := offsets + 4*len(bk.offsets)
	if epoch := bucketIDs + 4*len(bk.ids); le.Uint64(meshReal[epoch:]) != mesh.Epoch() || le.Uint32(meshReal[side:]) != uint32(bk.side) {
		t.Fatalf("the test's TIN locator layout ends at %d, where the encoder's epoch is not", epoch)
	}
	blobs = map[string][]byte{}
	patchOf := func(src []byte, name string, off int, v []byte) {
		blobs[name] = append([]byte(nil), src...)
		copy(blobs[name][off:], v)
	}
	patch := func(name string, off int, v []byte) { patchOf(real, name, off, v) }
	u32 := func(v int) []byte { return le.AppendUint32(nil, uint32(v)) }
	// Every page reference, pointing into the catalog pages and past the file.
	for name, off := range map[string]int{"heap page": heapPages, "tree root": tree, "summary first": summary} {
		patch(name+" in the catalog", off, u32(dataPages))
		patch(name+" past the file", off, u32(1<<31))
	}
	patchOf(scanReal, "sidecar first in the catalog", sidecar, u32(dataPages))
	patchOf(scanReal, "sidecar first past the file", sidecar, u32(1<<31))
	patchOf(scanReal, "sidecar pages past the data", sidecar+4, u32(dataPages+1))
	patch("summary pages past the data", summary+4, u32(dataPages+1))
	patch("heap pages descend", heapPages+4, real[heapPages:heapPages+4])
	// Not a permutation: the second cell-order entry overwritten by the first,
	// so one cell has two heap positions.
	patch("cell order names a cell twice", ids+4, real[ids:ids+4])
	patch("group count", groups, le.AppendUint64(nil, 1<<40))
	// A group's page run must be where its cells lie, and runs must ascend with
	// the group index: the fixture's five groups lie on pages 0–0, 0–1, 1–1,
	// 1–1, 1–1, and each lie below stays inside the heap.
	groupPages := func(i int) int { return groups + 8 + groupMetaLen*i + 3*8 }
	patch("group run past its last cell", groupPages(0)+4, u32(1))
	patch("group run before its first cell", groupPages(3), u32(0))
	patch("group run before its predecessor's", groupPages(2), u32(0))
	patch("partition short of its store", ids-8, le.AppendUint64(nil, 1))
	patch("partition count", record-4, u32(2))
	// The grid record must be a lattice of exactly the store's cells, every
	// rectangle finite and of positive spacing.
	f64 := func(v float64) []byte { return le.AppendUint64(nil, math.Float64bits(v)) }
	patch("grid short of its store", grid, u32(7))
	patch("grid of no rows", grid+4, u32(0))
	patch("grid spacing zero", grid+8+16, f64(0))
	patch("grid spacing negative", grid+8+24, f64(-0.5))
	patch("grid origin NaN", grid+8, f64(math.NaN()))
	patch("grid far corner infinite", grid+8+16, f64(math.MaxFloat64))
	// The buckets must be a side of 1..2^15 whose offsets fit the blob, finite
	// bounds, offsets from 0 that never fall and end at the id count, and ids
	// of the store's cells, ascending in each bucket.
	patchMesh := func(name string, off int, v []byte) { patchOf(meshReal, name, off, v) }
	lastOffset := bucketIDs - 4
	idCount := int(le.Uint32(meshReal[lastOffset:]))
	patchMesh("locator side zero", side, u32(0))
	patchMesh("locator side past the blob", side, u32(1<<15))
	patchMesh("locator side past any store", side, u32(1<<16))
	patchMesh("locator bounds NaN", bounds, f64(math.NaN()))
	patchMesh("locator bounds infinite", bounds+3*8, f64(math.Inf(1)))
	patchMesh("locator bounds inverted", bounds, f64(bk.bounds.Max.X+1))
	patchMesh("locator offsets start past 0", offsets, u32(1))
	patchMesh("locator offsets fall", offsets+4, u32(idCount+1))
	patchMesh("locator offsets end short of the ids", lastOffset, u32(idCount-1))
	patchMesh("locator offsets end past the ids", lastOffset, u32(idCount+1))
	patchMesh("locator id past the cells", bucketIDs, u32(mesh.cells))
	// A bucket of two or more ids with its second id set to its first.
	for k := 0; k+1 < len(bk.offsets); k++ {
		if lo, hi := bk.offsets[k], bk.offsets[k+1]; hi-lo >= 2 {
			at := bucketIDs + 4*int(lo)
			patchMesh("locator bucket not ascending", at+4, meshReal[at:at+4])
			break
		}
	}
	// A sidecar on a method with a tree: the header names the raw codec and
	// the record a one-page sidecar run inside the data region — a blob that
	// would re-encode to itself, which only the header's method check refuses.
	withSidecar := append(le.AppendUint16(append([]byte(nil), real[:codec]...), uint16(len(storage.SidecarCodecRaw))), storage.SidecarCodecRaw...)
	withSidecar = le.AppendUint32(le.AppendUint32(append(withSidecar, real[codec+2:tree]...), 0), 1)
	blobs["sidecar on a tree method"] = append(withSidecar, real[tree:]...)
	blobs["truncated"] = real[:len(real)/2]
	blobs["trailing bytes"] = append(append([]byte(nil), real...), 0)

	head := func(method string, tileSide uint32, cells uint64, parts uint32) []byte {
		b := le.AppendUint32(append([]byte(nil), catalogMagic[:]...), catalogVersion)
		b = append(le.AppendUint16(b, uint16(len(method))), method...)
		b = le.AppendUint16(b, 0) // no codec
		b = le.AppendUint64(le.AppendUint32(b, tileSide), cells)
		b = le.AppendUint32(le.AppendUint32(b, 0), 0) // no grid: one empty bucket
		b = le.AppendUint32(b, 1)
		for _, v := range []float64{0, 0, 1, 1} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		b = le.AppendUint64(b, 0)         // offsets 0, 0
		b = le.AppendUint64(b, 0)         // epoch
		b = append(b, make([]byte, 8)...) // no summary
		return le.AppendUint32(b, parts)
	}
	blobs["untiled cells"] = head("I-Hilbert", 0, 1<<40, 1)
	// 1<<30 cells is the largest count the header admits.
	blobs["tiled cells"] = head("LinearScan", 64, 1<<30, 1)
	blobs["tiles"] = append(head("LinearScan", 64, 64, 1<<31), make([]byte, 4*64)...)
	// A plausible header, then a tile of one cell on 1<<28 heap pages.
	tilePages := append(head("LinearScan", 64, 1, 1), make([]byte, 7*8)...)
	tilePages = le.AppendUint32(le.AppendUint64(tilePages, 1), 0)
	blobs["tile heap pages"] = append(le.AppendUint64(tilePages, 1<<28), make([]byte, 64)...)
	return dataPages, blobs
}

// writeCatalogFile writes a database file of dataPages zero pages, the catalog
// blob and a well-formed superblock locating it.
func writeCatalogFile(t *testing.T, path string, dataPages int, blob []byte) {
	t.Helper()
	disk, err := storage.OpenFileDisk(path, storage.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dataPages; i++ {
		if _, err := disk.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeCatalog(disk, blob); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogHostileCounts: every count and page id in a catalog is read out
// of a file, so a lying one must fail Open with an error — not size an
// allocation, and not be believed until the first query reads catalog bytes as
// cell records. Each row is a well-formed superblock over one of
// hostileCatalogs' blobs.
func TestCatalogHostileCounts(t *testing.T) {
	dataPages, blobs := hostileCatalogs(t)
	dir := t.TempDir()
	for name, blob := range blobs {
		path := filepath.Join(dir, name)
		writeCatalogFile(t, path, dataPages, blob)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := Open(path, 0)
		runtime.ReadMemStats(&after)
		if err == nil {
			eng.Close()
			t.Errorf("%s: hostile catalog opened", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Open allocated %d bytes before refusing", name, grew)
		}
	}
}

// fuzzDataPages is the data region FuzzOpenCatalog decodes under: larger than
// any seed's, so a mutated page id has room to stay plausible.
const fuzzDataPages = 1 << 12

// FuzzOpenCatalog: the catalog decoder never panics on bytes it did not write,
// and a blob it accepts is one it would have written — it re-encodes, from the
// opened store, to the same bytes, so every partition's geometry survived.
// Seeds are the real catalogs of every savable build-matrix row on a small
// DEM — each with its lattice —, of a TIN's, with its buckets, and the
// hostile ones.
func FuzzOpenCatalog(f *testing.F) {
	dem := testDEM(f, 8, 0.5)
	for _, row := range buildMatrix(dem) {
		if !row.buildable() {
			continue
		}
		row.opts.TileSide /= 4 // four tiles
		built, err := Build(context.Background(), dem, newPager(), row.opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(built.(interface{ encodeCatalog() []byte }).encodeCatalog())
	}
	mesh, err := buildIx(testTIN(f, 40), newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mesh.encodeCatalog())
	_, hostile := hostileCatalogs(f)
	for _, blob := range hostile {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 0)
		eng, err := decodeCatalog(blob, pager, fuzzDataPages)
		if err != nil {
			return
		}
		again := eng.(interface{ encodeCatalog() []byte }).encodeCatalog()
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted a %d-byte catalog that re-encodes to %d different bytes", len(blob), len(again))
		}
	})
}

// TestTiledSaveOpenRoundtrip: an opened planner prunes from the value
// ranges its partition records carry — like the build it was saved from, and
// without touching a page.
func TestTiledSaveOpenRoundtrip(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiled.fidx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := openIx(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	// A narrow high-tail band skips tiles, and the prune span reads zero pages.
	col := obs.NewCollector(4)
	met := obs.NewMetrics()
	opened.SetObserver(obs.Observer{Tracer: col, Metrics: met})
	vr := f.ValueRange()
	res, err := opened.Query(geom.Interval{Lo: vr.Hi - vr.Length()*0.02, Hi: vr.Hi})
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap.TilesPruned == 0 || snap.TilesPruned+snap.TilesScanned != int64(len(opened.Tiles())) {
		t.Errorf("pruned %d + scanned %d of %d tiles", snap.TilesPruned, snap.TilesScanned, len(opened.Tiles()))
	}
	if res.CandidateGroups != int(snap.TilesScanned) {
		t.Errorf("CandidateGroups %d, scanned %d", res.CandidateGroups, snap.TilesScanned)
	}
	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces", len(traces))
	}
	pruneSpans := 0
	for _, sp := range traces[0].Spans {
		if sp.Phase == obs.PhaseTilePrune {
			pruneSpans++
			if sp.Pages.Reads != 0 {
				t.Errorf("prune span read %d pages", sp.Pages.Reads)
			}
		}
	}
	if pruneSpans != 1 {
		t.Errorf("%d prune spans, want 1", pruneSpans)
	}
}

// TestTiledOpenUpdates applies update batches to a file-opened tiled store:
// the planner attaches the caller's field to the owning tiles and answers as
// the mutated field does, and as the store it was saved from.
func TestTiledOpenUpdates(t *testing.T) {
	runOn(t, "dem", rowOf("Tiled-LinearScan", BuildOptions{Method: MethodLinearScan, TileSide: 16, Codec: storage.SidecarCodecPacked}),
		step{opReopen, 100, 50, 0}, step{opUpdate, 11, 3, 4}, step{opQuery, 230, 120, 0}, step{opUpdate, 7, 6, 6}, step{opQuery, 40, 90, 0})
}
