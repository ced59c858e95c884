package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/storage"
)

// matrixRow is one value-index configuration of the build matrix, shared by
// TestBuildMatrix and the program harness of program_test.go.
type matrixRow struct {
	name string
	opts BuildOptions
	// natural marks the configurations that fold survivors in natural cell
	// order — scans, the sorted per-cell tree, every tiled planner — and so
	// answer byte-identically to the reference scan; the untiled
	// curve-ordered partitions fold in heap order instead.
	natural bool
}

// buildMatrix lists everything Build can be asked over f: every method (with
// the options that change what is built) × {untiled, 16-cell tiles} × the
// sidecar codec — raw or packed, or none where that is the default. Only
// LinearScan, the method without a tree, builds a sidecar; the others build
// without one and refuse a codec or NoSidecar.
func buildMatrix(f field.Field) []matrixRow {
	bases := []matrixRow{
		{name: "LinearScan", opts: BuildOptions{Method: MethodLinearScan}, natural: true},
		{name: "LinearScan-sidecar", opts: BuildOptions{Method: MethodLinearScan, NoSidecar: true}, natural: true},
		{name: "I-All", opts: BuildOptions{Method: MethodIAll}, natural: true},
		{name: "I-All+bulk", opts: BuildOptions{Method: MethodIAll, BulkLoad: true}, natural: true},
		{name: "I-All-sidecar", opts: BuildOptions{Method: MethodIAll, NoSidecar: true}, natural: true},
		{name: "I-Hilbert", opts: BuildOptions{Method: MethodIHilbert}},
	}
	var rows []matrixRow
	for _, m := range bases {
		scan := !methods[m.opts.Method].hasTree() && !m.opts.NoSidecar
		for _, side := range []int{0, 16} {
			for _, codec := range []string{"", storage.SidecarCodecRaw, storage.SidecarCodecPacked} {
				if (m.opts.NoSidecar && codec != storage.SidecarCodecRaw) || (scan && codec == "") {
					continue // no sidecar, one codec; a scan's default is its raw row
				}
				r := m
				r.opts.TileSide, r.opts.Codec = side, codec
				r.name = fmt.Sprintf("%s/tile=%d", m.name, side)
				if codec != "" {
					r.name += "/" + codec
				}
				r.natural = r.natural || side != 0
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// buildable reports whether Build accepts the row: the per-cell tree does not
// tile, and a method with a tree takes no sidecar option.
func (r matrixRow) buildable() bool {
	tiles := r.opts.TileSide == 0 || r.opts.Method != MethodIAll
	return tiles && (!methods[r.opts.Method].hasTree() || (r.opts.Codec == "" && !r.opts.NoSidecar))
}

// sidecarCodec names the codec of the engine's sidecars, "" without any.
func sidecarCodec(e Engine) string {
	sc := e.(*engine).parts[0].sidecar
	if sc == nil {
		return ""
	}
	return sc.Codec()
}

// TestBuildMatrix is the one table over everything Build can build: each
// buildable configuration builds the store its options describe — one
// partition, or one per tile, with a sidecar only where it is LinearScan's —
// and each unbuildable one is refused with the typed error. What the stores
// answer, and that the savable ones reopen as themselves, is
// FuzzEngineProgram's to check.
func TestBuildMatrix(t *testing.T) {
	f := testDEM(t, 32, 0.7)
	for _, row := range buildMatrix(f) {
		t.Run(row.name, func(t *testing.T) {
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
			if tiled := idx.Tiles() != nil; tiled != (row.opts.TileSide != 0) || (tiled && len(idx.Tiles()) != 4) {
				t.Fatalf("built a store of %d tiles for tile side %d", len(idx.Tiles()), row.opts.TileSide)
			}
			want := row.opts.Codec
			if row.opts.NoSidecar {
				want = ""
			}
			if got := sidecarCodec(idx); got != want {
				t.Fatalf("built with %q sidecars for options %+v", got, row.opts)
			}
			if methods[row.opts.Method].hasTree() && idx.Stats().SidecarPages != 0 {
				t.Fatalf("%s built %d sidecar pages", row.opts.Method, idx.Stats().SidecarPages)
			}
		})
	}
	for name, tc := range map[string]struct {
		opts BuildOptions
		want error
	}{
		"tile side 1":          {BuildOptions{Method: MethodLinearScan, TileSide: 1}, ErrBadOptions},
		"negative tile side":   {BuildOptions{Method: MethodLinearScan, TileSide: -4}, ErrBadOptions},
		"unknown codec":        {BuildOptions{Method: MethodLinearScan, Codec: "bogus"}, ErrBadOptions},
		"I-Hilbert, NoSidecar": {BuildOptions{Method: MethodIHilbert, NoSidecar: true}, ErrBadOptions},
		"unknown method":       {BuildOptions{Method: "I-Bogus"}, ErrUnknownMethod},
		"no method":            {BuildOptions{}, ErrUnknownMethod},
		"I-Quad":               {BuildOptions{Method: "I-Quad"}, ErrUnknownMethod},
		"I-Auto":               {BuildOptions{Method: "I-Auto"}, ErrUnknownMethod},
	} {
		if _, err := Build(context.Background(), f, newPager(), tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestTiledBuildFitsOneSummary: a partitioned-inner tiled build allocates
// exactly one field summary — the global one the aggregate tier serves — and
// no tile fits one of its own, so every page on the pager is a cell, index or
// summary page the stats account for. The global summary is the
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
	if got, want := pager.NumPages(), st.CellPages+st.IndexPages+summaryPages; got != want {
		t.Fatalf("pager holds %d pages, want %d (%d cell + %d index + %d summary): %d are unaccounted for",
			got, want, st.CellPages, st.IndexPages, summaryPages, got-want)
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
