package fielddb

// The shared conformance suite of the Querier interface: one table of
// surfaces — live DB, stored index file, pinned snapshot — driven through the
// whole contract, asserting the implementations agree on answers and fail the
// same way on bad input. Divergence between surfaces was exactly the drift
// the interface was introduced to stop, so every behavioral clause of the
// Querier doc comment is pinned here.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// conformanceSurface is one Querier implementation under test.
type conformanceSurface struct {
	name string
	q    Querier
	// conjoins marks surfaces AndQueriers accepts.
	conjoins bool
}

// conformanceSurfaces builds the three surfaces over one 64×64 terrain. The
// cleanup of every surface is registered on t.
func conformanceSurfaces(t *testing.T) (Interval, []conformanceSurface) {
	t.Helper()
	dem, err := TerrainDEM(64, 9)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: IHilbert})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	idxPath := filepath.Join(t.TempDir(), "conformance.fidx")
	if err := db.SaveIndex(idxPath); err != nil {
		t.Fatal(err)
	}
	si, err := OpenIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { si.Close() })

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })

	return dem.ValueRange(), []conformanceSurface{
		{name: "DB", q: db, conjoins: true},
		{name: "StoredIndex", q: si, conjoins: true},
		{name: "Snapshot", q: snap, conjoins: false},
	}
}

// sameResult asserts two results answer the same query identically — counts,
// area, and attributed I/O alike.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (want %v, got %v)", label, want, got)
	}
	if got.CellsMatched != want.CellsMatched || got.CellsFetched != want.CellsFetched {
		t.Fatalf("%s: cells diverge: want %d/%d, got %d/%d",
			label, want.CellsFetched, want.CellsMatched, got.CellsFetched, got.CellsMatched)
	}
	if math.Abs(got.Area-want.Area) > 1e-9*(1+math.Abs(want.Area)) {
		t.Fatalf("%s: area diverges: want %g, got %g", label, want.Area, got.Area)
	}
	if got.IO.Reads != want.IO.Reads {
		t.Fatalf("%s: attributed reads diverge: want %d, got %d", label, want.IO.Reads, got.IO.Reads)
	}
}

func TestQuerierConformanceAnswers(t *testing.T) {
	vr, surfaces := conformanceSurfaces(t)
	lo, hi := vr.Lo+vr.Length()*0.35, vr.Lo+vr.Length()*0.55
	ctx := context.Background()

	// The DB is the reference implementation; the others must match it.
	ref := surfaces[0].q
	refRange, err := ref.ValueQueryContext(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	refAbove, err := ref.ValueAboveContext(ctx, hi)
	if err != nil {
		t.Fatal(err)
	}
	refBelow, err := ref.ValueBelowContext(ctx, lo)
	if err != nil {
		t.Fatal(err)
	}
	refContours, err := ref.ContoursContext(ctx, (lo+hi)/2)
	if err != nil {
		t.Fatal(err)
	}
	refAgg, err := ref.ApproxAggregateContext(ctx, lo, hi, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	refApprox, err := ref.ApproxValueQueryContext(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			if s.q.Method() != IHilbert {
				t.Fatalf("Method() = %s", s.q.Method())
			}
			if s.q.Stats().Cells == 0 {
				t.Fatal("Stats() reports no cells")
			}
			if got := s.q.ValueRange(); got != vr {
				t.Fatalf("ValueRange() = %v, want %v", got, vr)
			}

			res, err := s.q.ValueQueryContext(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "range", refRange, res)

			above, err := s.q.ValueAboveContext(ctx, hi)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "above", refAbove, above)

			below, err := s.q.ValueBelowContext(ctx, lo)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "below", refBelow, below)

			// A measure query — ValueMeasureContext, or a value query under the
			// serving tier's core.WithMeasure — is the surface's own range
			// query without its geometry: every other field, I/O included,
			// identical.
			for name, measure := range map[string]func() (*Result, error){
				"ValueMeasureContext": func() (*Result, error) { return s.q.ValueMeasureContext(ctx, lo, hi) },
				"WithMeasure":         func() (*Result, error) { return s.q.ValueQueryContext(core.WithMeasure(ctx), lo, hi) },
			} {
				measured, err := measure()
				if err != nil {
					t.Fatal(err)
				}
				if want := stripGeometry(res); !reflect.DeepEqual(measured, want) {
					t.Fatalf("%s: %+v, want %+v", name, measured, want)
				}
			}

			// Batch answers must be positionally aligned and byte-identical
			// to solo execution.
			intervals := []Interval{
				{Lo: lo, Hi: hi},
				{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*0.1},
				{Lo: hi, Hi: vr.Hi},
			}
			batch, err := s.q.ValueQueryBatch(ctx, intervals)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(intervals) {
				t.Fatalf("batch returned %d results for %d intervals", len(batch), len(intervals))
			}
			for i, iv := range intervals {
				solo, err := s.q.ValueQueryContext(ctx, iv.Lo, iv.Hi)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "batch member", solo, batch[i])
			}

			// Contour assembly must agree across surfaces.
			lines, err := s.q.ContoursContext(ctx, (lo+hi)/2)
			if err != nil {
				t.Fatal(err)
			}
			if len(lines) != len(refContours) {
				t.Fatalf("contours: %d polylines, want %d", len(lines), len(refContours))
			}
			cm, err := s.q.ContourMapContext(ctx, (lo+hi)/2)
			if err != nil {
				t.Fatal(err)
			}
			if len(cm.Polylines) != len(lines) {
				t.Fatalf("ContourMap/Contours disagree: %d vs %d", len(cm.Polylines), len(lines))
			}

			// Point queries: every surface agrees with the DB — the stored
			// index through the lattice its file carries, in the same reads.
			// (A file saved from a TIN carries no locator: see StoredTIN.)
			type pointStats interface {
				PointQueryStatsContext(context.Context, Point) (float64, storage.Stats, error)
			}
			for _, p := range []Point{{X: 10.5, Y: 20.25}, {X: 30, Y: 60}, {X: 1920, Y: 945}} {
				want, wantIO, err := ref.(pointStats).PointQueryStatsContext(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				got, io, err := s.q.(pointStats).PointQueryStatsContext(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || io.Reads != wantIO.Reads {
					t.Fatalf("point %v: %g in %d reads, want %g in %d", p, got, io.Reads, want, wantIO.Reads)
				}
			}

			// Approximate aggregates: every surface answers from the same
			// persisted summary, so the estimates and certified bounds agree
			// exactly — and the bounds must actually contain the exact answer
			// the reference pipeline computed.
			agg, err := s.q.ApproxAggregateContext(ctx, lo, hi, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Count != refAgg.Count || agg.CountBound != refAgg.CountBound ||
				agg.Area != refAgg.Area || agg.AreaBound != refAgg.AreaBound ||
				agg.Fraction != refAgg.Fraction || agg.FractionBound != refAgg.FractionBound ||
				agg.TotalCells != refAgg.TotalCells || agg.TotalArea != refAgg.TotalArea ||
				agg.Approx != refAgg.Approx || agg.Fallback != refAgg.Fallback {
				t.Fatalf("aggregate diverges: %+v, want %+v", agg, refAgg)
			}
			if diff := math.Abs(agg.Count - float64(refRange.CellsMatched)); diff > agg.CountBound+1e-9 {
				t.Fatalf("count error %g exceeds certified bound %g", diff, agg.CountBound)
			}
			if diff := math.Abs(agg.Area - refRange.MatchedCellArea); diff > agg.AreaBound+1e-9*(1+agg.TotalArea) {
				t.Fatalf("area error %g exceeds certified bound %g", diff, agg.AreaBound)
			}
			if agg.Approx && !agg.Fallback && agg.IO.Reads > 4 {
				t.Fatalf("approximate aggregate cost %d reads, want <= 4", agg.IO.Reads)
			}

			// Approximate value queries answer from the same subfield
			// metadata on every surface, and the cell count is a true upper
			// bound on the exact answer.
			ap, err := s.q.ApproxValueQueryContext(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if ap.Groups != refApprox.Groups || ap.CellsUpperBound != refApprox.CellsUpperBound ||
				ap.AvgValue != refApprox.AvgValue {
				t.Fatalf("approx value query diverges: %+v, want %+v", ap, refApprox)
			}
			if ap.CellsUpperBound < refRange.CellsMatched {
				t.Fatalf("CellsUpperBound %d below the exact count %d", ap.CellsUpperBound, refRange.CellsMatched)
			}

			// Every surface meters its queries.
			if s.q.QueryMetrics().Queries == 0 {
				t.Fatal("QueryMetrics() recorded no queries")
			}
		})
	}

	// A file saved from a TIN carries its buckets: its point queries answer
	// the DB's value in the DB's reads, and its value queries as the DB's.
	t.Run("StoredTIN", func(t *testing.T) {
		mesh, err := NoiseTIN(300, 9)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(mesh, Options{Method: IHilbert})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		path := filepath.Join(t.TempDir(), "tin.fidx")
		if err := db.SaveIndex(path); err != nil {
			t.Fatal(err)
		}
		si, err := OpenIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		defer si.Close()
		b := mesh.Bounds()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 64; i++ {
			p := Point{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
			want, wst, werr := db.PointQueryStatsContext(context.Background(), p)
			got, gst, gerr := si.PointQueryStatsContext(context.Background(), p)
			if math.Float64bits(got) != math.Float64bits(want) || gst != wst || (gerr == nil) != (werr == nil) {
				t.Fatalf("point %v on a stored TIN: %v in %+v (%v), the DB's %v in %+v (%v)", p, got, gst, gerr, want, wst, werr)
			}
		}
		tvr := mesh.ValueRange()
		want, err := db.ValueQuery(tvr.Lo, tvr.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := si.ValueQuery(tvr.Lo, tvr.Hi)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "stored TIN range", want, got)
	})
}

// stripGeometry is r as a measure query answers it: a copy with Regions and
// Isolines cleared.
func stripGeometry(r *Result) *Result {
	m := *r
	m.Regions, m.Isolines = nil, nil
	return &m
}

// TestQuerierConformancePastRange: an open-ended query whose bound lies past
// the surface's value range answers empty — the zero-width interval at the
// bound, no cell matched, no cell page read — on every surface, with or
// without geometry, instead of failing on an inverted interval the caller
// never sent.
func TestQuerierConformancePastRange(t *testing.T) {
	vr, surfaces := conformanceSurfaces(t)
	ctx := context.Background()
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			st := s.q.Stats()
			for _, c := range []struct {
				name  string
				bound float64
				open  func(context.Context, float64) (*Result, error)
			}{
				{"above", vr.Hi + 1, s.q.ValueAboveContext},
				{"below", vr.Lo - 1, s.q.ValueBelowContext},
			} {
				res, err := c.open(ctx, c.bound)
				if err != nil {
					t.Fatalf("%s %g: %v", c.name, c.bound, err)
				}
				if want := (Interval{Lo: c.bound, Hi: c.bound}); res.CellsMatched != 0 || res.RegionCount != 0 ||
					res.IsolineCount != 0 || res.Area != 0 || res.Query != want {
					t.Fatalf("%s %g: %+v, want an empty answer to %v", c.name, c.bound, res, want)
				}
				if res.IO.Reads > st.IndexPages+st.SidecarPages {
					t.Fatalf("%s %g read %d pages, more than the %d filter pages", c.name, c.bound, res.IO.Reads, st.IndexPages+st.SidecarPages)
				}
				measured, err := c.open(core.WithMeasure(ctx), c.bound)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(measured, stripGeometry(res)) {
					t.Fatalf("%s %g measured %+v, the geometry query %+v", c.name, c.bound, measured, res)
				}
			}
		})
	}
}

func TestQuerierConformanceValidation(t *testing.T) {
	_, surfaces := conformanceSurfaces(t)
	ctx := context.Background()
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			if _, err := s.q.ValueQueryContext(ctx, 5, 1); !errors.Is(err, ErrInvertedInterval) {
				t.Fatalf("inverted interval: %v", err)
			}
			if _, err := s.q.ValueQueryContext(ctx, math.NaN(), 1); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("NaN lo: %v", err)
			}
			if _, err := s.q.ValueQueryContext(ctx, 0, math.Inf(1)); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("+Inf hi: %v", err)
			}
			if _, err := s.q.ValueAboveContext(ctx, math.NaN()); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("NaN above: %v", err)
			}
			if _, err := s.q.ValueBelowContext(ctx, math.Inf(-1)); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("-Inf below: %v", err)
			}
			if _, err := s.q.ValueQueryBatch(ctx, nil); !errors.Is(err, ErrBadConjunction) {
				t.Fatalf("empty batch: %v", err)
			}
			// A bad member is rejected with its position, before any I/O.
			_, err := s.q.ValueQueryBatch(ctx, []Interval{{Lo: 0, Hi: 1}, {Lo: 3, Hi: 2}})
			if !errors.Is(err, ErrInvertedInterval) || !strings.Contains(err.Error(), "query 1") {
				t.Fatalf("bad batch member: %v", err)
			}
			if _, err := s.q.PointQueryContext(ctx, Point{X: math.NaN(), Y: 1}); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("NaN point: %v", err)
			}
			// Aggregates share the interval validation and add tolerance
			// validation: NaN and negative tolerances are ErrBadTolerance on
			// every surface.
			if _, err := s.q.ApproxAggregateContext(ctx, 5, 1, 0.1); !errors.Is(err, ErrInvertedInterval) {
				t.Fatalf("inverted aggregate: %v", err)
			}
			if _, err := s.q.ApproxAggregateContext(ctx, math.NaN(), 1, 0.1); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("NaN aggregate lo: %v", err)
			}
			if _, err := s.q.ApproxAggregateContext(ctx, 0, 1, math.NaN()); !errors.Is(err, ErrBadTolerance) {
				t.Fatalf("NaN tolerance: %v", err)
			}
			if _, err := s.q.ApproxAggregateContext(ctx, 0, 1, -0.5); !errors.Is(err, ErrBadTolerance) {
				t.Fatalf("negative tolerance: %v", err)
			}
			if _, err := s.q.ApproxValueQueryContext(ctx, 5, 1); !errors.Is(err, ErrInvertedInterval) {
				t.Fatalf("inverted approx value query: %v", err)
			}
			if _, err := s.q.ApproxValueQueryContext(ctx, 0, math.Inf(1)); !errors.Is(err, ErrNonFiniteBound) {
				t.Fatalf("+Inf approx value query: %v", err)
			}
		})
	}
}

func TestQuerierConformanceClosed(t *testing.T) {
	dem, err := TerrainDEM(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "closed.fidx")
	if err := db.SaveIndex(idxPath); err != nil {
		t.Fatal(err)
	}
	si, err := OpenIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	si.Close()

	// A snapshot closed on its own: its DB stays open and commits an update
	// batch afterwards, compacting away the epoch the snapshot had pinned.
	ctx := context.Background()
	liveDEM, err := TerrainDEM(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Open(liveDEM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if _, err := live.UpdateSamples(ctx, []SampleUpdate{{Sample: 5, Value: liveDEM.SampleValue(5) + 1}}); err != nil {
		t.Fatal(err)
	}

	for _, s := range []conformanceSurface{
		{name: "DB", q: db},
		{name: "StoredIndex", q: si},
		{name: "Snapshot", q: snap},
	} {
		t.Run(s.name, func(t *testing.T) {
			if _, err := s.q.ValueQueryContext(ctx, 0, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("range after close: %v", err)
			}
			if _, err := s.q.ValueAboveContext(ctx, 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("above after close: %v", err)
			}
			if _, err := s.q.ValueBelowContext(ctx, 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("below after close: %v", err)
			}
			if _, err := s.q.ValueQueryBatch(ctx, []Interval{{Lo: 0, Hi: 1}}); !errors.Is(err, ErrClosed) {
				t.Fatalf("batch after close: %v", err)
			}
			if _, err := s.q.PointQueryContext(ctx, Point{X: 1, Y: 1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("point after close: %v", err)
			}
			if _, err := s.q.ContourMapContext(ctx, 0.5); !errors.Is(err, ErrClosed) {
				t.Fatalf("contour after close: %v", err)
			}
			if _, err := s.q.ContoursContext(ctx, 0.5); !errors.Is(err, ErrClosed) {
				t.Fatalf("contours after close: %v", err)
			}
			if _, err := s.q.ApproxAggregateContext(ctx, 0, 1, 0.1); !errors.Is(err, ErrClosed) {
				t.Fatalf("aggregate after close: %v", err)
			}
			if _, err := s.q.ApproxValueQueryContext(ctx, 0, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("approx value query after close: %v", err)
			}
			// The accessors keep answering on a closed handle.
			s.q.Method()
			s.q.Stats()
			s.q.ValueRange()
			s.q.QueryMetrics()

			// Closed is checked before the arguments on every method: a NaN
			// bound on a closed handle is still ErrClosed.
			nan := math.NaN()
			if _, err := s.q.ValueQueryContext(ctx, nan, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN range after close: %v", err)
			}
			if _, err := s.q.ValueAboveContext(ctx, nan); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN above after close: %v", err)
			}
			if _, err := s.q.ValueBelowContext(ctx, nan); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN below after close: %v", err)
			}
			if _, err := s.q.ValueQueryBatch(ctx, []Interval{{Lo: nan, Hi: 1}}); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN batch after close: %v", err)
			}
			if _, err := s.q.PointQueryContext(ctx, Point{X: nan, Y: 1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN point after close: %v", err)
			}
			if _, err := s.q.ContourMapContext(ctx, nan); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN contour after close: %v", err)
			}
			if _, err := s.q.ContoursContext(ctx, nan); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN contours after close: %v", err)
			}
			if _, err := s.q.ApproxAggregateContext(ctx, nan, 1, 0.1); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN aggregate after close: %v", err)
			}
			if _, err := s.q.ApproxValueQueryContext(ctx, nan, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("NaN approx value query after close: %v", err)
			}
		})
	}
}

func TestAndQueriersAcrossSurfaces(t *testing.T) {
	vr, surfaces := conformanceSurfaces(t)
	ctx := context.Background()
	lo, hi := vr.Lo+vr.Length()*0.3, vr.Lo+vr.Length()*0.7

	// DB ∧ StoredIndex of the same field: the conjunction is the narrower
	// band, and both conditions contribute per-field results.
	db, si := surfaces[0].q, surfaces[1].q
	res, err := AndQueriers(ctx,
		[]Querier{db, si},
		[]Interval{{Lo: lo, Hi: vr.Hi}, {Lo: vr.Lo, Hi: hi}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerField) != 2 {
		t.Fatalf("PerField = %d", len(res.PerField))
	}
	want, err := db.ValueQueryContext(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Area-want.Area) > 1e-6*(1+want.Area) {
		t.Fatalf("conjunction area %g, want band area %g", res.Area, want.Area)
	}

	// Surfaces marked non-conjoining — snapshots, whose pinned state is not a
	// standalone index — are rejected with the typed error.
	for _, s := range surfaces {
		_, err := AndQueriers(ctx, []Querier{db, s.q},
			[]Interval{{Lo: lo, Hi: hi}, {Lo: lo, Hi: hi}})
		if s.conjoins && err != nil {
			t.Fatalf("%s conjunction: %v", s.name, err)
		}
		if !s.conjoins && !errors.Is(err, ErrBadConjunction) {
			t.Fatalf("%s conjunction: %v, want ErrBadConjunction", s.name, err)
		}
	}

	// Shape validation.
	if _, err := AndQueriers(ctx, nil, nil); !errors.Is(err, ErrBadConjunction) {
		t.Fatalf("empty conjunction: %v", err)
	}
	if _, err := AndQueriers(ctx, []Querier{db}, []Interval{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}); !errors.Is(err, ErrBadConjunction) {
		t.Fatalf("mismatched lengths: %v", err)
	}
	if _, err := AndQueriers(ctx, []Querier{db}, []Interval{{Lo: 2, Hi: 1}}); !errors.Is(err, ErrInvertedInterval) {
		t.Fatalf("inverted condition: %v", err)
	}
}
