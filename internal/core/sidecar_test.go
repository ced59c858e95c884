package core

import (
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
	sc *storage.IntervalSidecar, cells int) {
	t.Helper()
	if sc == nil {
		t.Fatal("no sidecar built")
	}
	if sc.Count() != cells {
		t.Fatalf("sidecar count %d, want %d", sc.Count(), cells)
	}
	if heap.Count() != cells {
		t.Fatalf("heap holds %d records, want %d", heap.Count(), cells)
	}
	qc := pager.BeginQuery()
	var buf []byte
	err := sc.ScanRange(qc, 0, cells, func(base int, lo, hi []float64) bool {
		for i := range lo {
			pos := base + i
			rid, err := heap.Locate(pos)
			if err != nil {
				t.Fatalf("pos %d: %v", pos, err)
			}
			rec, err := heap.GetCtx(qc, rid, buf)
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
// under both codecs of LinearScan, the one method with a sidecar, the columns
// reproduce CellIntervalFromRecord exactly.
func TestSidecarMatchesRecordIntervals(t *testing.T) {
	fields := map[string]field.Field{
		"dem-rough":  testDEM(t, 32, 0.9),
		"dem-smooth": testDEM(t, 16, 0.2),
		"dem-flat":   flatDEM(t, 12),
		"tin":        testTIN(t, 300),
	}
	for name, f := range fields {
		t.Run(name, func(t *testing.T) {
			for _, codec := range []string{storage.SidecarCodecRaw, storage.SidecarCodecPacked} {
				ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				checkSidecarIdentity(t, ls.pager, ls.parts[0].heap, ls.parts[0].sidecar, ls.cells)
			}
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

// TestSaveFileSidecarRoundtrip: a saved file round-trips LinearScan's
// sidecar — geometry and position map both survive reopen, every entry still
// the interval of the record at its position.
func TestSaveFileSidecarRoundtrip(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	built, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
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
	if got, want := opened.parts[0].heap.PageStarts(), built.parts[0].heap.PageStarts(); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened page first positions differ from the built ones")
	}
	checkSidecarIdentity(t, opened.pager, opened.parts[0].heap, opened.parts[0].sidecar, opened.cells)
}

// TestOpenFileNoSidecar: a file saved from a LinearScan build without a
// sidecar reopens as the store it was saved from — solo, batched and to the
// oracle — and, since every file carries the position map, answers point
// queries and takes update batches.
func TestOpenFileNoSidecar(t *testing.T) {
	runOn(t, "dem", rowOf("LinearScan-sidecar", BuildOptions{Method: MethodLinearScan, NoSidecar: true}),
		step{opReopen, 90, 60, 0}, step{opQuery, 30, 120, 0}, step{opBatch, 4, 3, 3}, step{opPoint, 60, 60, 0},
		step{opUpdate, 5, 2, 2}, step{opPoint, 140, 200, 0}, step{opQuery, 90, 60, 0}, step{opAggregate, 100, 50, 0})
}
