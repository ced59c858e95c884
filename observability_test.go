package fielddb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// recordingTracer appends every trace in arrival order.
type recordingTracer struct {
	mu     sync.Mutex
	traces []*QueryTrace
}

func (r *recordingTracer) TraceQuery(t *QueryTrace) {
	r.mu.Lock()
	r.traces = append(r.traces, t)
	r.mu.Unlock()
}

func (r *recordingTracer) last(t *testing.T) *QueryTrace {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traces) == 0 {
		t.Fatal("no trace emitted")
	}
	return r.traces[len(r.traces)-1]
}

// checkTrace asserts the core reconciliation invariant: the trace's span page
// counts sum exactly to the trace IO, which equals the query's own Result.IO.
func checkTrace(t *testing.T, tr *QueryTrace, io storage.Stats) {
	t.Helper()
	var sum obs.PageCounts
	for _, sp := range tr.Spans {
		sum = sum.Add(sp.Pages)
	}
	if sum != tr.IO {
		t.Fatalf("%s %s: span sum %+v != trace IO %+v", tr.Method, tr.Kind, sum, tr.IO)
	}
	want := io.PageCounts()
	if tr.IO != want {
		t.Fatalf("%s %s: trace IO %+v != query IO %+v", tr.Method, tr.Kind, tr.IO, want)
	}
	if tr.Err != "" {
		t.Fatalf("%s %s: unexpected trace error %q", tr.Method, tr.Kind, tr.Err)
	}
}

// checkPointTrace runs one conventional (point) query and reconciles its
// trace: one filter span, the locator's arithmetic on a DEM's lattice or a
// TIN's buckets, which reads no page; one decode span, the cell fetch,
// charged what the store's totals moved by; and the two summing to the Stats
// the query returned. A DEM's fetch reads at most two pages.
func checkPointTrace(t *testing.T, db *DB, rec *recordingTracer) {
	t.Helper()
	p := geom.Pt(12.5, 40.25)
	_, isDEM := db.Field().(*grid.DEM)
	if !isDEM {
		p = db.Field().Bounds().Center()
	}
	baseVal := db.IOStats()
	_, st, err := db.PointQueryStatsContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.last(t)
	if tr.Kind != obs.KindPoint || tr.Method != "Spatial" {
		t.Fatalf("point trace %s %s", tr.Method, tr.Kind)
	}
	checkTrace(t, tr, st)
	cell := db.IOStats().Sub(baseVal).PageCounts()
	if len(tr.Spans) != 2 || tr.Spans[0].Phase != obs.PhaseFilter || tr.Spans[1].Phase != obs.PhaseDecode ||
		tr.Spans[0].Pages != (obs.PageCounts{}) || tr.Spans[1].Pages != cell || cell.Reads == 0 {
		t.Fatalf("point spans %+v; the store moved by %+v", tr.Spans, cell)
	}
	if isDEM && cell.Reads > 2 {
		t.Fatalf("point query on a %T: decode %+v", db.Field(), cell)
	}
}

// TestTraceReconciliation is the acceptance criterion of the observability
// layer: for every query method and kind, the per-span page counts sum
// exactly to the query's own Result.IO.
func TestTraceReconciliation(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NoiseTIN(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vr := dem.ValueRange()
	for _, method := range []Method{LinearScan, IAll, IHilbert} {
		t.Run(string(method), func(t *testing.T) {
			rec := &recordingTracer{}
			db, err := Open(dem, Options{Method: method, Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			intervals := [][2]float64{
				{vr.Lo + vr.Length()*0.4, vr.Lo + vr.Length()*0.5}, // selective
				{vr.Lo, vr.Hi},           // everything
				{vr.Hi + 10, vr.Hi + 20}, // empty
				{vr.Lo + vr.Length()*0.5, vr.Lo + vr.Length()*0.5}, // zero width
			}
			for _, iv := range intervals {
				res, err := db.ValueQuery(iv[0], iv[1])
				if err != nil {
					t.Fatal(err)
				}
				tr := rec.last(t)
				if tr.Kind != obs.KindValue {
					t.Fatalf("kind %q", tr.Kind)
				}
				checkTrace(t, tr, res.IO)
				// LinearScan's filter step is sidecar-served by default: every
				// value query's trace must carry a sidecar-filter span whose
				// page reads are part of the sum checkTrace just verified.
				if method == LinearScan {
					var sidecar *Span
					for i := range tr.Spans {
						if tr.Spans[i].Phase == obs.PhaseSidecar {
							sidecar = &tr.Spans[i]
						}
					}
					if sidecar == nil {
						t.Fatalf("no sidecar-filter span in %v", tr.Spans)
					}
					if sidecar.Pages.Reads == 0 {
						t.Fatal("sidecar-filter span read no pages")
					}
				}
			}
			checkPointTrace(t, db, rec)
			tinDB, err := Open(mesh, Options{Method: method, Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer tinDB.Close()
			checkPointTrace(t, tinDB, rec)
			// Approximate query (partition-based methods only).
			if ar, err := db.ApproxValueQueryContext(ctx, vr.Lo, vr.Lo+vr.Length()*0.25); err == nil {
				tr := rec.last(t)
				if tr.Kind != obs.KindApprox {
					t.Fatalf("approx kind %q", tr.Kind)
				}
				checkTrace(t, tr, ar.IO)
			} else if !errors.Is(err, ErrNoPartition) {
				t.Fatal(err)
			}
		})
	}

	// A tiled index gathers after its last tile scan — sort, full decode and
	// refinement of every survivor, most of a tiled query's CPU — and that
	// gather runs under one refinement span that reads nothing: solo on the
	// sequential and the worker-pool scatter, and per member of a shared-scan
	// batch. A query that pruned every tile has no gather and no span.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("tiled/workers=%d", workers), func(t *testing.T) {
			rec := &recordingTracer{}
			db, err := Open(dem, Options{Method: LinearScan, TileSide: 16, Workers: workers, Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkGather := func(tr *QueryTrace, io storage.Stats, tiles int) {
				t.Helper()
				checkTrace(t, tr, io)
				refines := 0
				for i, sp := range tr.Spans {
					if sp.Phase != obs.PhaseRefine {
						continue
					}
					refines++
					if i != len(tr.Spans)-1 {
						t.Errorf("refine span at %d of %d: the gather is the last step", i, len(tr.Spans))
					}
					if sp.Pages != (obs.PageCounts{}) {
						t.Errorf("gather span charged pages: %+v", sp.Pages)
					}
				}
				if want := min(tiles, 1); refines != want {
					t.Fatalf("%d refine spans for %d scanned tiles, want %d: %v", refines, tiles, want, tr.Spans)
				}
			}
			intervals := []Interval{
				{Lo: vr.Lo + vr.Length()*0.4, Hi: vr.Lo + vr.Length()*0.5}, // selective
				{Lo: vr.Lo, Hi: vr.Hi},           // everything
				{Lo: vr.Hi + 10, Hi: vr.Hi + 20}, // every tile pruned
			}
			for _, iv := range intervals {
				res, err := db.ValueQuery(iv.Lo, iv.Hi)
				if err != nil {
					t.Fatal(err)
				}
				checkGather(rec.last(t), res.IO, res.CandidateGroups)
			}
			before := len(rec.traces)
			results, err := db.ValueQueryBatch(ctx, intervals)
			if err != nil {
				t.Fatal(err)
			}
			members := 0
			for _, tr := range rec.traces[before:] {
				if tr.Kind != obs.KindValue {
					continue // the batch's own trace
				}
				for i, iv := range intervals {
					if tr.Lo == iv.Lo && tr.Hi == iv.Hi {
						checkGather(tr, results[i].IO, results[i].CandidateGroups)
						members++
					}
				}
			}
			if members != len(intervals) {
				t.Fatalf("%d member traces for %d batch members", members, len(intervals))
			}
			checkPointTrace(t, db, rec)
		})
	}

	// An update batch traces too: a regrouping batch's maintenance (greedy
	// re-cut, tree rebuild, summary refit) runs under an index-maintain span,
	// and the span pages sum to the batch's published read activity.
	t.Run("update/"+string(IHilbert), func(t *testing.T) {
		dem, err := TerrainDEM(64, 42) // UpdateSamples mutates the field
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingTracer{}
		db, err := Open(dem, Options{Method: IHilbert, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// Push a quarter of the samples far above the old range: interval
		// lengths in that block explode, so the §3 cost bound re-cuts.
		var updates []SampleUpdate
		for s := 0; s < dem.NumSamples()/4; s++ {
			updates = append(updates, SampleUpdate{Sample: s, Value: dem.SampleValue(s) + 3*vr.Length()})
		}
		st, err := db.UpdateSamples(ctx, updates)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Regrouped {
			t.Fatal("batch did not regroup; the case is vacuous")
		}
		var tr *QueryTrace
		for _, c := range rec.traces {
			if c.Kind == obs.KindUpdate && c.Method == string(IHilbert) {
				tr = c
			}
		}
		if tr == nil {
			t.Fatal("no update trace from the value index")
		}
		checkTrace(t, tr, st.IO)
		maintain := false
		for _, sp := range tr.Spans {
			maintain = maintain || sp.Phase == obs.PhaseMaintain
		}
		if !maintain {
			t.Fatalf("no index-maintain span in %v", tr.Spans)
		}
	})
}

// TestTraceReconciliationParallel re-runs the invariant with a parallel
// refinement pool: worker contexts must merge into the refine span before it
// closes.
func TestTraceReconciliationParallel(t *testing.T) {
	dem, err := TerrainDEM(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTracer{}
	db, err := Open(dem, Options{Workers: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := dem.ValueRange()
	res, err := db.ValueQuery(vr.Lo, vr.Hi)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, rec.last(t), res.IO)
}

func TestContourTrace(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// SetTracer after Open must reinstall the sinks.
	col := NewTraceCollector(8)
	db.SetTracer(col)
	ctx := context.Background()
	vr := dem.ValueRange()
	if _, err := db.ContourMapContext(ctx, vr.Lo+vr.Length()*0.5); err != nil {
		t.Fatal(err)
	}
	traces := col.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want value + contour", len(traces))
	}
	if traces[0].Kind != obs.KindValue {
		t.Fatalf("first trace kind %q", traces[0].Kind)
	}
	ct := traces[1]
	if ct.Kind != obs.KindContour {
		t.Fatalf("second trace kind %q", ct.Kind)
	}
	if len(ct.Spans) != 1 || ct.Spans[0].Phase != obs.PhaseContour {
		t.Fatalf("contour spans: %+v", ct.Spans)
	}
	if ct.IO.Reads != 0 {
		t.Fatalf("contour assembly read %d pages", ct.IO.Reads)
	}
}

func TestMetricsRegistry(t *testing.T) {
	atLeastProcs(t, 2) // a core for each of the two workers
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	vr := dem.ValueRange()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := db.ValueQuery(vr.Lo, vr.Lo+vr.Length()*0.3); err != nil {
			t.Fatal(err)
		}
		if _, err := db.PointQuery(geom.Pt(20.5, 30.5)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ApproxValueQueryContext(ctx, vr.Lo, vr.Lo+vr.Length()*0.3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Contours(vr.Lo + vr.Length()*0.5); err != nil {
		t.Fatal(err)
	}
	// An inverted interval is rejected before reaching the engine and must
	// not count as a query.
	if _, err := db.ValueQuery(5, 1); err == nil {
		t.Fatal("inverted interval accepted")
	}

	m := db.Metrics()
	if m.Engine.Queries != 3*n+1 {
		t.Fatalf("engine queries %d, want %d", m.Engine.Queries, 3*n+1)
	}
	byMethod := map[string]int64{}
	for _, mc := range m.Engine.Methods {
		byMethod[mc.Method] = mc.Queries
	}
	if byMethod["I-Hilbert"] != 2*n+1 || byMethod["Spatial"] != n {
		t.Fatalf("per-method queries: %v", byMethod)
	}
	if m.Engine.IndexPagesRead == 0 || m.Engine.CellPagesRead == 0 {
		t.Fatalf("pages by kind: %+v", m.Engine)
	}
	// Engine page totals reconcile with the per-store I/O counters across
	// all three read kinds (I-Hilbert's default path never touches the
	// sidecar, so its sidecar reads are zero — but they stay in the sum).
	engineReads := m.Engine.IndexPagesRead + m.Engine.SidecarPagesRead + m.Engine.CellPagesRead
	storeReads := int64(m.ValueIO.Reads)
	if engineReads != storeReads {
		t.Fatalf("engine reads %d != store reads %d", engineReads, storeReads)
	}
	if m.Engine.WorkerItems == 0 {
		t.Fatal("no worker utilization recorded under Workers=2")
	}
	if m.Engine.ContourAssemblies != 1 {
		t.Fatalf("contours %d", m.Engine.ContourAssemblies)
	}
	if m.ValuePool == nil {
		t.Fatal("no value pool shards")
	}
	var probes int64
	for _, s := range m.ValuePool {
		probes += s.Hits + s.Misses
	}
	if probes == 0 {
		t.Fatal("no pool probes counted")
	}
	if out := m.String(); len(out) == 0 {
		t.Fatal("empty metrics rendering")
	}

	// LinearScan serves its filter step from the sidecar, so its sidecar
	// reads must be non-zero and the three read kinds must still sum to the
	// store totals.
	lsdb, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	defer lsdb.Close()
	for i := 0; i < 3; i++ {
		if _, err := lsdb.ValueQuery(vr.Lo, vr.Lo+vr.Length()*0.3); err != nil {
			t.Fatal(err)
		}
	}
	lm := lsdb.Metrics()
	if lm.Engine.SidecarPagesRead == 0 {
		t.Fatalf("LinearScan recorded no sidecar reads: %+v", lm.Engine)
	}
	lsReads := lm.Engine.IndexPagesRead + lm.Engine.SidecarPagesRead + lm.Engine.CellPagesRead
	if lsReads != int64(lm.ValueIO.Reads) {
		t.Fatalf("LinearScan engine reads %d != store reads %d", lsReads, lm.ValueIO.Reads)
	}
}

// countdownCtx is a context whose Err trips to context.Canceled after n
// polls — a deterministic way to cancel mid-refinement.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestValueQueryCancellation(t *testing.T) {
	dem, err := TerrainDEM(128, 42)
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	for _, workers := range []int{1, 4} {
		db, err := Open(dem, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		ctx := newCountdownCtx(2)
		_, err = db.ValueQueryContext(ctx, vr.Lo, vr.Hi)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// All refinement workers must have been joined: the goroutine count
		// settles back to (at most) where it started.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("workers=%d: %d goroutines before, %d after cancel", workers, before, got)
		}
		db.Close()
	}
}

func TestCancellationAcrossQueryKinds(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := dem.ValueRange()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ValueQueryContext(canceled, vr.Lo, vr.Hi); !errors.Is(err, context.Canceled) {
		t.Fatalf("value: %v", err)
	}
	if _, err := db.ApproxValueQueryContext(canceled, vr.Lo, vr.Hi); !errors.Is(err, context.Canceled) {
		t.Fatalf("approx: %v", err)
	}
	if _, _, err := db.PointQueryStatsContext(newCountdownCtx(0), geom.Pt(12.5, 40.25)); !errors.Is(err, context.Canceled) {
		t.Fatalf("point: %v", err)
	}
	if _, err := db.ContourMapContext(canceled, vr.Lo+vr.Length()*0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("contour: %v", err)
	}
	if _, err := AndContext(canceled, []*DB{db}, []Interval{{Lo: vr.Lo, Hi: vr.Hi}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("and: %v", err)
	}
	// A canceled query must be classified as canceled, not failed.
	found := false
	for _, mc := range db.Metrics().Engine.Methods {
		if mc.Method == "I-Hilbert" {
			found = true
			if mc.Canceled == 0 {
				t.Fatalf("no canceled queries recorded: %+v", mc)
			}
			if mc.Failures != 0 {
				t.Fatalf("cancellations misclassified as failures: %+v", mc)
			}
		}
	}
	if !found {
		t.Fatal("I-Hilbert missing from metrics")
	}
}

func TestOpenContextCancellation(t *testing.T) {
	dem, err := TerrainDEM(128, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OpenContext(ctx, dem, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential open: %v", err)
	}
	if _, err := OpenContext(ctx, dem, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel open: %v", err)
	}
}

// TestTracingDisabledStatsIntact guards the nil-tracer fast path: queries
// without a tracer still produce identical results and I/O accounting.
func TestTracingDisabledStatsIntact(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	plain, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	traced, err := Open(dem, Options{Tracer: NewTraceCollector(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	a, err := plain.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.IO != b.IO || a.CellsMatched != b.CellsMatched || a.Area != b.Area {
		t.Fatalf("tracing changed the query: %+v vs %+v", a.IO, b.IO)
	}
}
