package fielddb

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fielddb/internal/obs"
)

// batchTestIntervals returns overlapping value bands over vr — the workload
// batching exists for.
func batchTestIntervals(vr Interval) []Interval {
	l := vr.Length()
	return []Interval{
		{Lo: vr.Lo + l*0.30, Hi: vr.Lo + l*0.50},
		{Lo: vr.Lo + l*0.35, Hi: vr.Lo + l*0.55},
		{Lo: vr.Lo + l*0.40, Hi: vr.Lo + l*0.45}, // nested in both
		{Lo: vr.Lo + l*0.10, Hi: vr.Lo + l*0.20}, // disjoint from the rest
	}
}

// TestBatchTraceReconciliation extends the TestTraceReconciliation
// invariant to batched execution: every member's trace still reconciles
// span-for-span with its attributed Result.IO, while the batch-level trace
// carries exactly the physical I/O — and attributed, physical, and saved
// reconcile in the metrics registry.
func TestBatchTraceReconciliation(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	for _, method := range []Method{LinearScan, IAll, IHilbert} {
		t.Run(string(method), func(t *testing.T) {
			rec := &recordingTracer{}
			db, err := Open(dem, Options{Method: method, Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			intervals := batchTestIntervals(vr)
			results, err := db.ValueQueryBatch(context.Background(), intervals)
			if err != nil {
				t.Fatal(err)
			}

			var memberTraces []*QueryTrace
			var batchTrace *QueryTrace
			rec.mu.Lock()
			for _, tr := range rec.traces {
				switch tr.Kind {
				case obs.KindValue:
					memberTraces = append(memberTraces, tr)
				case obs.KindBatch:
					batchTrace = tr
				}
			}
			rec.mu.Unlock()
			if len(memberTraces) != len(intervals) {
				t.Fatalf("%d member traces, want %d", len(memberTraces), len(intervals))
			}
			if batchTrace == nil {
				t.Fatal("no batch-level trace emitted")
			}

			// Member traces reconcile with the attributed per-query stats.
			attributed := 0
			for i, tr := range memberTraces {
				checkTrace(t, tr, results[i].IO)
				attributed += results[i].IO.Reads
			}

			// The batch trace carries the physical I/O: a batch-fetch span
			// plus (for the indexed families) an aggregate filter span.
			foundFetch := false
			for _, sp := range batchTrace.Spans {
				if sp.Phase == obs.PhaseBatchFetch {
					foundFetch = true
				}
			}
			if !foundFetch {
				t.Fatalf("batch trace lacks a batch-fetch span: %+v", batchTrace.Spans)
			}
			m := db.Metrics().Engine
			if m.Batches != 1 || m.BatchQueries != int64(len(intervals)) {
				t.Fatalf("batch counters: %+v", m)
			}
			if int64(batchTrace.IO.Reads) != m.BatchPhysicalPages {
				t.Fatalf("batch trace reads %d != physical pages %d",
					batchTrace.IO.Reads, m.BatchPhysicalPages)
			}
			// Attributed and physical reconcile exactly: what the members
			// report minus what the batch read is what coalescing saved.
			if m.BatchPhysicalPages+m.CoalescedPagesSaved != int64(attributed) {
				t.Fatalf("physical %d + saved %d != attributed %d",
					m.BatchPhysicalPages, m.CoalescedPagesSaved, attributed)
			}
			if m.CoalescedPagesSaved == 0 {
				t.Fatal("overlapping batch saved no pages")
			}
		})
	}
}

// TestValueQueryBatchMatchesSolo checks the explicit batch API through the
// facade: on a Snapshot, after an interval-changing update, the batch is one
// shared scan whose every member answers at the pin — identical, geometry and
// I/O, to the snapshot's solo query and different from the live answer. (That
// every engine configuration's batch members equal their solo calls is
// FuzzEngineProgram's to check.)
func TestValueQueryBatchMatchesSolo(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	intervals := batchTestIntervals(vr)
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var updates []SampleUpdate
	for s := 0; s < 200; s++ {
		updates = append(updates, SampleUpdate{Sample: s * 7, Value: vr.Lo + vr.Length()*0.5})
	}
	if _, err := db.UpdateSamples(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	results, st, err := snap.ValueQueryBatchStats(context.Background(), intervals)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesSaved <= 0 {
		t.Fatalf("snapshot batch saved no pages: %+v", st)
	}
	moved := false
	for i, iv := range intervals {
		pinned, err := snap.ValueQueryContext(context.Background(), iv.Lo, iv.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pinned, results[i]) {
			t.Fatalf("snapshot query %d: batched result diverges from solo at the pin", i)
		}
		live, err := db.ValueQuery(iv.Lo, iv.Hi)
		if err != nil {
			t.Fatal(err)
		}
		moved = moved || !reflect.DeepEqual(live.Regions, pinned.Regions)
	}
	if !moved {
		t.Fatal("update changed no live answer; the pinned comparison is vacuous")
	}
}

// TestValueQueryBatchValidation checks the facade-level argument contract.
func TestValueQueryBatchValidation(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	if _, err := db.ValueQueryBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	_, err = db.ValueQueryBatch(context.Background(), []Interval{{Lo: vr.Lo, Hi: vr.Hi}, {Lo: 5, Hi: 1}})
	if !errors.Is(err, ErrInvertedInterval) {
		t.Fatalf("inverted member: %v", err)
	}
	// A canceled batch context fails every member; partial results carry nil
	// at failed positions and the error names the first failure.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := db.ValueQueryBatch(canceled, batchTestIntervals(vr))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch: %v", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("canceled member %d returned a result", i)
		}
	}
	db.Close()
	if _, err := db.ValueQueryBatch(context.Background(), batchTestIntervals(vr)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed db: %v", err)
	}
}

// TestBatchWindow checks the admission-window path end to end: concurrent
// queries through a windowed DB — every other one a measure query, so groups
// mix both sinks — answer byte-identically to a window-free DB however the
// slot gate grouped them, and every one shows up in the batch metrics — as a
// batch member, and as a free-slot group or a waiter.
func TestBatchWindow(t *testing.T) {
	dem, err := TerrainDEM(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	plain, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	windowed, err := Open(dem, Options{Method: LinearScan, BatchWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer windowed.Close()

	intervals := batchTestIntervals(vr)
	solo := make([]*Result, len(intervals))
	for i, iv := range intervals {
		if solo[i], err = plain.ValueQuery(iv.Lo, iv.Hi); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(intervals))
	for i, iv := range intervals {
		wg.Add(1)
		go func(i int, iv Interval) {
			defer wg.Done()
			query, want := windowed.ValueQueryContext, solo[i]
			if i%2 == 1 {
				query, want = windowed.ValueMeasureContext, stripGeometry(solo[i])
			}
			res, err := query(context.Background(), iv.Lo, iv.Hi)
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(want, res) {
				errs[i] = errors.New("windowed result diverges from solo")
			}
		}(i, iv)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	m := windowed.Metrics().Engine
	if n := int64(len(intervals)); m.Batches == 0 || m.BatchQueries != n || m.GroupsFreeSlot+m.WindowWaiters != n {
		t.Fatalf("batch counters after windowed run: %+v", m)
	}
	// Validation errors bypass the window entirely.
	if _, err := windowed.ValueQuery(5, 1); !errors.Is(err, ErrInvertedInterval) {
		t.Fatalf("inverted through window: %v", err)
	}
}

// TestStoredIndexValueQueryBatch checks the batch API on a saved-and-reopened
// index file.
func TestStoredIndexValueQueryBatch(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{Method: IHilbert})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	path := filepath.Join(t.TempDir(), "terrain.fidx")
	if err := db.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	si, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	vr := dem.ValueRange()
	intervals := batchTestIntervals(vr)
	solo := make([]*Result, len(intervals))
	for i, iv := range intervals {
		if solo[i], err = si.ValueQuery(iv.Lo, iv.Hi); err != nil {
			t.Fatal(err)
		}
	}
	results, err := si.ValueQueryBatch(context.Background(), intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !reflect.DeepEqual(solo[i], results[i]) {
			t.Fatalf("stored query %d: batched result diverges from solo", i)
		}
	}
	if m := si.Metrics(); m.Batches != 1 || m.BatchQueries != int64(len(intervals)) {
		t.Fatalf("stored batch counters: %+v", m)
	}
	if _, err := si.ValueQueryBatch(context.Background(), nil); err == nil {
		t.Fatal("empty stored batch accepted")
	}
	if _, err := si.ValueQueryBatch(context.Background(), []Interval{{Lo: 5, Hi: 1}}); !errors.Is(err, ErrInvertedInterval) {
		t.Fatalf("inverted stored member: %v", err)
	}
	si.Close()
	if _, err := si.ValueQueryBatch(context.Background(), intervals); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed stored index: %v", err)
	}
}
