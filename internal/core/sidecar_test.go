package core

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

// flatDEM builds a DEM whose cells all carry the same value — every cell
// interval is degenerate (lo == hi), the edge case that trips naive interval
// encodings.
func flatDEM(t testing.TB, side int) *grid.DEM {
	t.Helper()
	heights := make([]float64, (side+1)*(side+1))
	for i := range heights {
		heights[i] = 42.5
	}
	d, err := grid.New(geom.Pt(0, 0), 1, 1, side, side, heights)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkSidecarIdentity verifies the property the sidecar's correctness rests
// on: every (lo, hi) entry is bit-for-bit identical to
// CellIntervalFromRecord on the heap record stored at the same position.
func checkSidecarIdentity(t *testing.T, pager *storage.Pager, heap *storage.HeapFile,
	rids []storage.RID, sc *storage.IntervalSidecar, cells int) {
	t.Helper()
	if sc == nil {
		t.Fatal("no sidecar built")
	}
	if sc.Count() != cells {
		t.Fatalf("sidecar count %d, want %d", sc.Count(), cells)
	}
	if len(rids) != cells {
		t.Fatalf("rids %d, want %d", len(rids), cells)
	}
	qc := pager.BeginQuery()
	var buf []byte
	err := sc.ScanRange(qc, 0, cells, func(base int, lo, hi []float64) bool {
		for i := range lo {
			pos := base + i
			rec, err := heap.GetCtx(qc, rids[pos], buf)
			if err != nil {
				t.Fatalf("pos %d: %v", pos, err)
			}
			iv, err := field.CellIntervalFromRecord(rec)
			if err != nil {
				t.Fatalf("pos %d: %v", pos, err)
			}
			if math.Float64bits(lo[i]) != math.Float64bits(iv.Lo) ||
				math.Float64bits(hi[i]) != math.Float64bits(iv.Hi) {
				t.Fatalf("pos %d: sidecar (%v, %v) != record (%v, %v)",
					pos, lo[i], hi[i], iv.Lo, iv.Hi)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSidecarMatchesRecordIntervals is the property test of the sidecar
// build: across grids and TINs — including a degenerate all-flat field — and
// across every builder that writes a sidecar, the packed columns reproduce
// CellIntervalFromRecord exactly.
func TestSidecarMatchesRecordIntervals(t *testing.T) {
	fields := map[string]field.Field{
		"dem-rough":  testDEM(t, 32, 0.9),
		"dem-smooth": testDEM(t, 16, 0.2),
		"dem-flat":   flatDEM(t, 12),
		"tin":        testTIN(t, 300),
	}
	for name, f := range fields {
		t.Run(name, func(t *testing.T) {
			ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
			if err != nil {
				t.Fatal(err)
			}
			checkSidecarIdentity(t, ls.pager, ls.parts[0].heap, ls.parts[0].rids, ls.parts[0].sidecar, ls.cells)

			ia, err := buildIx(f, newPager(), BuildOptions{Method: MethodIAll})
			if err != nil {
				t.Fatal(err)
			}
			checkSidecarIdentity(t, ia.pager, ia.parts[0].heap, ia.parts[0].rids, ia.parts[0].sidecar, ia.cells)

			ih, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
			if err != nil {
				t.Fatal(err)
			}
			checkSidecarIdentity(t, ih.pager, ih.parts[0].heap, ih.parts[0].rids, ih.parts[0].sidecar, ih.cells)

			vr := f.ValueRange()
			iq, err := buildIx(f, newPager(), BuildOptions{Method: MethodIQuad, MaxSize: vr.Length()/8 + 1})
			if err != nil {
				t.Fatal(err)
			}
			checkSidecarIdentity(t, iq.pager, iq.parts[0].heap, iq.parts[0].rids, iq.parts[0].sidecar, iq.cells)
		})
	}
}

// answerFields strips a Result down to the parts that define the answer
// (and the cost counters that must agree across equivalent pipelines).
type answerFields struct {
	CandidateGroups int
	CellsFetched    int
	CellsMatched    int
	Regions         []geom.Polygon
	Isolines        [][2]geom.Point
	Area            float64
}

func answerOf(r *Result) answerFields {
	return answerFields{
		CandidateGroups: r.CandidateGroups,
		CellsFetched:    r.CellsFetched,
		CellsMatched:    r.CellsMatched,
		Regions:         r.Regions,
		Isolines:        r.Isolines,
		Area:            r.Area,
	}
}

// testQueries returns a query mix covering selective, everything, empty, and
// zero-width intervals over f's value range.
func testQueries(f field.Field) []geom.Interval {
	vr := f.ValueRange()
	return []geom.Interval{
		{Lo: vr.Lo + vr.Length()*0.4, Hi: vr.Lo + vr.Length()*0.45},
		{Lo: vr.Lo, Hi: vr.Hi},
		{Lo: vr.Hi + 10, Hi: vr.Hi + 20},
		{Lo: vr.Lo + vr.Length()*0.5, Hi: vr.Lo + vr.Length()*0.5},
	}
}

// TestLinearScanSidecarByteIdentity is the identity criterion of the
// tentpole: the sidecar-served LinearScan returns byte-identical answers —
// geometry, counters, everything but the page accounting — to the full heap
// scan it replaces.
func TestLinearScanSidecarByteIdentity(t *testing.T) {
	for name, f := range map[string]field.Field{"dem": testDEM(t, 32, 0.6), "tin": testTIN(t, 400)} {
		t.Run(name, func(t *testing.T) {
			with, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
			if err != nil {
				t.Fatal(err)
			}
			without, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, NoSidecar: true})
			if err != nil {
				t.Fatal(err)
			}
			if with.parts[0].sidecar == nil || without.parts[0].sidecar != nil {
				t.Fatal("sidecar toggle ignored")
			}
			for _, q := range testQueries(f) {
				a, err := with.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := without.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
					t.Fatalf("query %v: sidecar answer diverged:\n%+v\nvs\n%+v", q, answerOf(a), answerOf(b))
				}
				// The sidecar path must not read more pages than the scan it
				// replaces (on the full-range query they tie at heap+sidecar
				// vs heap; on selective ones it must win).
				if a.IO.Reads > b.IO.Reads+with.parts[0].sidecar.NumPages() {
					t.Fatalf("query %v: sidecar read %d pages, scan %d", q, a.IO.Reads, b.IO.Reads)
				}
			}
		})
	}
}

// TestIAllSidecarToggleIdentity: I-All's filter never touches cell pages
// either way (the tree stores exact intervals), so the sidecar toggle may
// change nothing about a query — including its I/O.
func TestIAllSidecarToggleIdentity(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	with, err := buildIx(f, newPager(), BuildOptions{Method: MethodIAll})
	if err != nil {
		t.Fatal(err)
	}
	without, err := buildIx(f, newPager(), BuildOptions{Method: MethodIAll, NoSidecar: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries(f) {
		a, err := with.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := without.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
			t.Fatalf("query %v: answers diverged", q)
		}
		if a.IO != b.IO {
			t.Fatalf("query %v: IO diverged: %+v vs %+v", q, a.IO, b.IO)
		}
	}
}

// TestSaveFileSidecarRoundtrip: a saved file round-trips the sidecar —
// geometry and position map both survive reopen.
func TestSaveFileSidecarRoundtrip(t *testing.T) {
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
	defer opened.Close()
	if got, want := opened.Stats().SidecarPages, built.Stats().SidecarPages; got != want || got == 0 {
		t.Fatalf("sidecar pages %d, want %d (> 0)", got, want)
	}
	if !reflect.DeepEqual(opened.parts[0].rids, built.parts[0].rids) {
		t.Fatal("reconstructed position map differs from the built one")
	}
	checkSidecarIdentity(t, opened.pager, opened.parts[0].heap, opened.parts[0].rids, opened.parts[0].sidecar, opened.cells)
	for _, q := range testQueries(f) {
		a, err := built.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
			t.Fatalf("query %v: reopened index diverged", q)
		}
	}
}

// TestOpenFileNoSidecar: a file saved from a NoSidecar build opens without
// a sidecar or position map, answers exactly like the sidecar-carrying file
// of the same field, keeps per-query page accounting reconciled (published
// per-query stats sum to the store totals), and serves the batch executor
// with member results byte-identical to solo.
func TestOpenFileNoSidecar(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	dir := t.TempDir()
	open := func(name string, opts BuildOptions) *engine {
		t.Helper()
		built, err := buildIx(f, newPager(), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := built.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		opened, err := openIx(path, 8192)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { opened.Close() })
		return opened
	}
	bare := open("bare.fidx", BuildOptions{Method: MethodIHilbert, NoSidecar: true})
	current := open("sidecar.fidx", BuildOptions{Method: MethodIHilbert})
	if bare.parts[0].sidecar != nil || bare.parts[0].rids != nil || bare.Stats().SidecarPages != 0 {
		t.Fatal("sidecar-less file decoded a sidecar")
	}

	queries := testQueries(f)
	solo := make([]*Result, len(queries))
	published := storage.Stats{}
	before := bare.pager.Stats()
	for i, q := range queries {
		res, err := bare.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
		published = published.Add(res.IO)
	}
	if got := bare.pager.Stats().Sub(before); got != published {
		t.Fatalf("store totals advanced by %+v, published per-query stats sum to %+v", got, published)
	}

	for i, q := range queries {
		want, err := current.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(solo[i]), answerOf(want)) {
			t.Fatalf("query %v: sidecar-less answer diverged from the sidecar file's", q)
		}
	}

	// Every batch member must equal its solo answer, I/O included.
	members := make([]BatchQuery, len(queries))
	for i, q := range queries {
		members[i] = BatchQuery{Query: q}
	}
	before = bare.pager.Stats()
	results, st := bare.QueryBatch(members)
	batchPublished := storage.Stats{}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("member %d: %v", i, results[i].Err)
		}
		if !reflect.DeepEqual(solo[i], results[i].Res) {
			t.Fatalf("member %d: batched answer on sidecar-less file diverged from solo", i)
		}
		batchPublished = batchPublished.Add(results[i].Res.IO)
	}
	if got := bare.pager.Stats().Sub(before); got != batchPublished {
		t.Fatalf("batch: store totals advanced by %+v, published member stats sum to %+v", got, batchPublished)
	}
	if st.AttributedReads != batchPublished.Reads {
		t.Fatalf("attributed %d != Σ member reads %d", st.AttributedReads, batchPublished.Reads)
	}
}
