package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// matrixRow is one value-index configuration of the build matrix, shared by
// TestBuildMatrix and the pin table of pin_test.go.
type matrixRow struct {
	name string
	opts BuildOptions
	// natural marks the configurations that fold survivors in natural cell
	// order — scans, the sorted per-cell tree, every tiled planner — and so
	// answer byte-identically to the reference scan; the untiled
	// curve-ordered partitions fold in heap order instead.
	natural bool
}

// buildMatrix lists everything Build can build over f: every method (with
// the options that change what is built) × {untiled, 16-cell tiles} × {raw,
// packed sidecars}.
func buildMatrix(f field.Field) []matrixRow {
	maxSize := f.ValueRange().Length()/8 + 1
	methods := []matrixRow{
		{name: "LinearScan", opts: BuildOptions{Method: MethodLinearScan}, natural: true},
		{name: "LinearScan-sidecar", opts: BuildOptions{Method: MethodLinearScan, NoSidecar: true}, natural: true},
		{name: "I-All", opts: BuildOptions{Method: MethodIAll}, natural: true},
		{name: "I-All+bulk", opts: BuildOptions{Method: MethodIAll, BulkLoad: true}, natural: true},
		{name: "I-All-sidecar", opts: BuildOptions{Method: MethodIAll, NoSidecar: true}, natural: true},
		{name: "I-Hilbert", opts: BuildOptions{Method: MethodIHilbert}},
		{name: "I-Quad", opts: BuildOptions{Method: MethodIQuad, MaxSize: maxSize}},
		{name: "I-Auto", opts: BuildOptions{Method: MethodAuto}},
	}
	var rows []matrixRow
	for _, m := range methods {
		for _, side := range []int{0, 16} {
			for _, codec := range []string{storage.SidecarCodecRaw, storage.SidecarCodecPacked} {
				if m.opts.NoSidecar && codec == storage.SidecarCodecPacked {
					continue // no sidecar, no codec
				}
				r := m
				r.opts.TileSide, r.opts.Codec = side, codec
				r.name = fmt.Sprintf("%s/tile=%d/%s", m.name, side, codec)
				r.natural = r.natural || side != 0
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// buildable reports whether Build accepts the row: the per-cell tree and the
// planner do not tile.
func (r matrixRow) buildable() bool {
	return r.opts.TileSide == 0 || (r.opts.Method != MethodIAll && r.opts.Method != MethodAuto)
}

// stored reports whether the row has an on-disk format: everything Build
// builds but the planner, whose histogram no page holds.
func (r matrixRow) stored() bool { return r.buildable() && !methods[r.opts.Method].plans }

// updates reports whether the row, saved and reopened, applies update batches:
// the file must carry the position map that rides with a sidecar or a per-cell
// tree, and the quadtree's partition is not one a batch re-derives.
func (r matrixRow) updates() bool {
	return (!r.opts.NoSidecar || r.opts.Method == MethodIAll) && r.opts.Method != MethodIQuad
}

// sidecarCodec names the codec of the engine's sidecars, "" without any.
func sidecarCodec(e Engine) string {
	sc := e.(*engine).parts[0].sidecar
	if sc == nil {
		return ""
	}
	return sc.Codec()
}

// sortedRegions returns the answer regions in a canonical order, so answers
// folded in different cell orders compare as sets.
func sortedRegions(res *Result) []geom.Polygon {
	out := append([]geom.Polygon(nil), res.Regions...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k].X < b[k].X || (a[k].X == b[k].X && a[k].Y < b[k].Y)
			}
		}
		return len(a) < len(b)
	})
	return out
}

// checkAgainstScan compares one answer with the reference scan's: byte for
// byte where the fold order is the scan's, as the same set of regions (and
// the same area up to float summation order) otherwise.
func checkAgainstScan(t *testing.T, label string, natural bool, got, want *Result) {
	t.Helper()
	if got.CellsMatched != want.CellsMatched || len(got.Isolines) != len(want.Isolines) {
		t.Fatalf("%s: matched %d cells, %d isolines; the scan %d, %d", label,
			got.CellsMatched, len(got.Isolines), want.CellsMatched, len(want.Isolines))
	}
	if natural {
		if !reflect.DeepEqual(got.Regions, want.Regions) || got.Area != want.Area ||
			got.MatchedCellArea != want.MatchedCellArea || !reflect.DeepEqual(got.Isolines, want.Isolines) {
			t.Fatalf("%s: answer not byte-identical to the scan's (area %v vs %v)", label, got.Area, want.Area)
		}
		return
	}
	if !reflect.DeepEqual(sortedRegions(got), sortedRegions(want)) {
		t.Fatalf("%s: region set differs from the scan's (%d vs %d regions)", label, len(got.Regions), len(want.Regions))
	}
	if math.Abs(got.Area-want.Area) > 1e-9*(1+want.Area) {
		t.Fatalf("%s: area %v, the scan's %v", label, got.Area, want.Area)
	}
}

// TestBuildMatrix is the one table over everything Build can build: each
// buildable configuration answers like the sidecar-less LinearScan — the
// paper's §2.2.2 baseline — and, where it has an on-disk format, saves to a
// file that reopens as the same store: same type, stats and sidecar codec, a
// value range covering the field's, every answer the very Result — counters
// and I/O included — the built index gives, and after one update batch on each
// the same answers still. Each unbuildable configuration is refused with the
// typed error.
func TestBuildMatrix(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	ref, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan, NoSidecar: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := tiledTestQueries(f)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, label string, natural bool, idx Engine) {
		t.Helper()
		for i, q := range queries {
			got, err := idx.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %v: %v", label, q, err)
			}
			checkAgainstScan(t, fmt.Sprintf("%s %v", label, q), natural, got, want[i])
		}
	}
	nx, _ := f.Size()
	batch := []SampleUpdate{
		{Sample: 12*(nx+1) + 12, Value: f.ValueRange().Hi + 4},
		{Sample: 12*(nx+1) + 52, Value: f.ValueRange().Lo - 4},
		{Sample: 52*(nx+1) + 52, Value: f.ValueRange().Lo + f.ValueRange().Length()/2},
	}
	for _, row := range buildMatrix(f) {
		t.Run(row.name, func(t *testing.T) {
			// The row's own copy of the field: its update batch mutates it.
			f := testDEM(t, 64, 0.7)
			idx, err := Build(context.Background(), f, newPager(), row.opts)
			if !row.buildable() {
				if !errors.Is(err, ErrBadOptions) {
					t.Fatalf("err = %v, want ErrBadOptions", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tiled := idx.Tiles() != nil; tiled != (row.opts.TileSide != 0) || (tiled && len(idx.Tiles()) != 16) {
				t.Fatalf("built a store of %d tiles for tile side %d", len(idx.Tiles()), row.opts.TileSide)
			}
			check(t, "built", row.natural, idx)
			path := filepath.Join(t.TempDir(), "index.fidx")
			err = idx.SaveFile(path)
			if !row.stored() {
				if !errors.Is(err, ErrNoPartition) {
					t.Fatalf("save: err = %v, want ErrNoPartition", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			opened, err := Open(path, 8192)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if len(opened.Tiles()) != len(idx.Tiles()) || opened.Stats() != idx.Stats() {
				t.Fatalf("opened %d tiles (%v), built %d (%v)", len(opened.Tiles()), opened.Stats(), len(idx.Tiles()), idx.Stats())
			}
			if vr := opened.ValueRange(); vr.IsEmpty() || vr.Lo > f.ValueRange().Lo || vr.Hi < f.ValueRange().Hi {
				t.Fatalf("opened ValueRange %v does not cover the field's %v", vr, f.ValueRange())
			}
			if got, want := sidecarCodec(opened), sidecarCodec(idx); got != want {
				t.Fatalf("opened with %q sidecars, built with %q", got, want)
			}
			same := func(label string, io bool) {
				t.Helper()
				for _, q := range queries {
					got, err := opened.QueryContext(context.Background(), q)
					if err != nil {
						t.Fatalf("%s %v: %v", label, q, err)
					}
					want, err := idx.QueryContext(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !io {
						got.IO, want.IO = storage.Stats{}, storage.Stats{}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v: the opened index answers %+v, the built one %+v", label, q, answerOf(got), answerOf(want))
					}
				}
			}
			same("opened", true)
			if !row.updates() {
				return
			}
			// The opened store and its in-memory twin take the same batch, each
			// over its own copy of the field, and keep answering alike; their
			// maintained trees landed on different pages, so I/O is not compared.
			if _, err := idx.ApplyUpdates(context.Background(), f, batch); err != nil {
				t.Fatal(err)
			}
			ur, err := opened.ApplyUpdates(context.Background(), testDEM(t, 64, 0.7), batch)
			if err != nil {
				t.Fatal(err)
			}
			if ur.Epoch != idx.Epoch() {
				t.Fatalf("the opened store committed epoch %d, its twin %d", ur.Epoch, idx.Epoch())
			}
			same("updated", false)
		})
	}
	for name, tc := range map[string]struct {
		opts BuildOptions
		want error
	}{
		"tile side 1":        {BuildOptions{Method: MethodLinearScan, TileSide: 1}, ErrBadOptions},
		"negative tile side": {BuildOptions{Method: MethodLinearScan, TileSide: -4}, ErrBadOptions},
		"unknown codec":      {BuildOptions{Method: MethodIHilbert, Codec: "bogus"}, ErrBadOptions},
		"unknown method":     {BuildOptions{Method: "I-Bogus"}, ErrUnknownMethod},
		"no method":          {BuildOptions{}, ErrUnknownMethod},
		"I-Quad, no MaxSize": {BuildOptions{Method: MethodIQuad, TileSide: 16}, ErrBadOptions},
	} {
		if _, err := Build(context.Background(), f, newPager(), tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestTiledBuildFitsOneSummary: a partitioned-inner tiled build allocates
// exactly one field summary — the global one the aggregate tier serves — and
// no tile fits one of its own, so every page on the pager is a cell, index,
// sidecar or summary page the stats account for. The global summary is the
// one an untiled build over the same cells fits: same intervals, same areas,
// order-independent, hence the same certified bounds from the same ≤ 4 reads.
func TestTiledBuildFitsOneSummary(t *testing.T) {
	f := testDEM(t, 64, 0.7)
	pager := newPager()
	ti, err := buildIx(f, pager, BuildOptions{Method: MethodIHilbert, TileSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	st := ti.Stats()
	if got, want := pager.NumPages(), st.CellPages+st.IndexPages+st.SidecarPages+summaryPages; got != want {
		t.Fatalf("pager holds %d pages, want %d (%d cell + %d index + %d sidecar + %d summary): %d are unaccounted for",
			got, want, st.CellPages, st.IndexPages, st.SidecarPages, summaryPages, got-want)
	}
	flat, err := buildIx(f, newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, q := range aggregateQueries(f, 35) {
		got, err := ti.AggregateContext(context.Background(), q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if got.IO.Reads == 0 {
			continue // composed from the tile summaries alone
		}
		answered++
		want, err := flat.AggregateContext(context.Background(), q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Approx || got.IO.Reads > summaryPages {
			t.Fatalf("%v: approx=%v from %d reads, want the summary's ≤ %d", q, got.Approx, got.IO.Reads, summaryPages)
		}
		if got.Count != want.Count || got.CountBound != want.CountBound || got.Area != want.Area || got.AreaBound != want.AreaBound {
			t.Fatalf("%v: tiled summary answers %g±%g cells, %g±%g area; the untiled build's %g±%g, %g±%g", q,
				got.Count, got.CountBound, got.Area, got.AreaBound, want.Count, want.CountBound, want.Area, want.AreaBound)
		}
		count, area := bruteAggregate(f, q)
		checkCertified(t, "tiled I-Hilbert", got, count, area)
	}
	if answered == 0 {
		t.Fatal("no query reached the global summary; the case is vacuous")
	}
}
