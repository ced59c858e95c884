package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilBuilderInert(t *testing.T) {
	tb := Begin(nil, "M", KindValue, 0, 1)
	if tb != nil {
		t.Fatal("Begin with nil tracer must return nil")
	}
	// Every method must be a no-op on the nil receiver.
	tb.BeginSpan(PhaseFilter, PageCounts{})
	tb.EndSpan(PageCounts{Reads: 5})
	tb.Finish(errors.New("boom"))
}

func TestBuilderSpanAccounting(t *testing.T) {
	col := NewCollector(4)
	tb := Begin(col, "I-Hilbert", KindValue, 10, 20)
	tb.BeginSpan(PhaseFilter, PageCounts{})
	tb.EndSpan(PageCounts{Reads: 3, RandReads: 3})
	tb.BeginSpan(PhaseRefine, PageCounts{Reads: 3, RandReads: 3})
	tb.EndSpan(PageCounts{Reads: 10, RandReads: 3, SeqReads: 7, CacheHits: 2})
	tb.Finish(nil)

	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if tr.Method != "I-Hilbert" || tr.Kind != KindValue || tr.Lo != 10 || tr.Hi != 20 {
		t.Fatalf("header: %+v", tr)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	if tr.Spans[0].Phase != PhaseFilter || tr.Spans[0].Pages.Reads != 3 {
		t.Fatalf("filter span: %+v", tr.Spans[0])
	}
	if tr.Spans[1].Phase != PhaseRefine || tr.Spans[1].Pages.Reads != 7 ||
		tr.Spans[1].Pages.SeqReads != 7 || tr.Spans[1].Pages.CacheHits != 2 {
		t.Fatalf("refine span: %+v", tr.Spans[1])
	}
	// Trace IO is the sum of span page counts.
	if tr.IO.Reads != 10 || tr.IO.CacheHits != 2 {
		t.Fatalf("trace IO: %+v", tr.IO)
	}
	if tr.Err != "" {
		t.Fatalf("unexpected error %q", tr.Err)
	}
	if !strings.Contains(tr.String(), "I-Hilbert value") {
		t.Fatalf("String: %s", tr.String())
	}
}

func TestBuilderAutoClose(t *testing.T) {
	// BeginSpan closes an open span; Finish closes the last one with the
	// counts of the last boundary and records the error.
	col := NewCollector(1)
	tb := Begin(col, "M", KindPoint, 1, 2)
	tb.BeginSpan(PhaseFilter, PageCounts{})
	tb.BeginSpan(PhaseDecode, PageCounts{Reads: 2}) // implicitly ends filter
	tb.Finish(errors.New("boom"))                   // implicitly ends decode

	tr := col.Traces()[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	if tr.Spans[0].Pages.Reads != 2 {
		t.Fatalf("filter pages: %+v", tr.Spans[0].Pages)
	}
	// The decode span was closed by Finish with the last boundary's counts:
	// zero delta.
	if tr.Spans[1].Pages.Reads != 0 {
		t.Fatalf("decode pages: %+v", tr.Spans[1].Pages)
	}
	if tr.Err != "boom" {
		t.Fatalf("err %q", tr.Err)
	}
}

func TestCollectorRing(t *testing.T) {
	col := NewCollector(2)
	for i := 0; i < 5; i++ {
		tb := Begin(col, fmt.Sprintf("m%d", i), KindValue, 0, 0)
		tb.Finish(nil)
	}
	if col.Total() != 5 {
		t.Fatalf("total %d", col.Total())
	}
	traces := col.Traces()
	if len(traces) != 2 {
		t.Fatalf("retained %d", len(traces))
	}
	if traces[0].Method != "m3" || traces[1].Method != "m4" {
		t.Fatalf("ring order: %s, %s", traces[0].Method, traces[1].Method)
	}
}

func TestPageCountsSubAdd(t *testing.T) {
	a := PageCounts{Reads: 10, SeqReads: 6, RandReads: 4, CacheHits: 3, SimElapsed: 10 * time.Millisecond}
	b := PageCounts{Reads: 4, SeqReads: 2, RandReads: 2, CacheHits: 1, SimElapsed: 4 * time.Millisecond}
	d := a.Sub(b)
	if d.Reads != 6 || d.SeqReads != 4 || d.RandReads != 2 || d.CacheHits != 2 || d.SimElapsed != 6*time.Millisecond {
		t.Fatalf("Sub: %+v", d)
	}
	if got := b.Add(d); got != a {
		t.Fatalf("Add: %+v", got)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseFilter:  "filter",
		PhaseRefine:  "refine",
		PhaseDecode:  "decode",
		PhaseContour: "contour-assemble",
	}
	for ph, name := range want {
		if ph.String() != name {
			t.Fatalf("%d: %s", ph, ph.String())
		}
	}
	if got := Phase(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown phase: %s", got)
	}
}

func TestMetricsNilInert(t *testing.T) {
	var m *Metrics
	if slot := m.RegisterMethod("X"); slot != -1 {
		t.Fatalf("nil RegisterMethod = %d", slot)
	}
	m.RecordQuery(0, time.Millisecond, nil)
	m.RecordPages(1, 0, 2, 3, time.Millisecond)
	m.RecordWorkers(1, time.Millisecond, time.Millisecond)
	m.RecordContour(time.Millisecond)
	if s := m.Snapshot(); s.Queries != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

func TestMetricsRegisterMethod(t *testing.T) {
	m := NewMetrics()
	a := m.RegisterMethod("A")
	b := m.RegisterMethod("B")
	if a == b {
		t.Fatal("distinct methods share a slot")
	}
	if again := m.RegisterMethod("A"); again != a {
		t.Fatalf("re-register moved slot %d -> %d", a, again)
	}
	for i := 0; i < MaxMethods; i++ {
		m.RegisterMethod(fmt.Sprintf("filler-%d", i))
	}
	if overflow := m.RegisterMethod("overflow"); overflow != -1 {
		t.Fatalf("overflow slot %d", overflow)
	}
	// Out-of-range slots must be ignored, not panic.
	m.RecordQuery(-1, time.Millisecond, nil)
	m.RecordQuery(MaxMethods, time.Millisecond, nil)
}

func TestMetricsRecordQueryClassification(t *testing.T) {
	m := NewMetrics()
	slot := m.RegisterMethod("M")
	m.RecordQuery(slot, time.Millisecond, nil)
	m.RecordQuery(slot, time.Millisecond, errors.New("boom"))
	m.RecordQuery(slot, time.Millisecond, context.Canceled)
	m.RecordQuery(slot, time.Millisecond, fmt.Errorf("wrapped: %w", context.DeadlineExceeded))

	s := m.Snapshot()
	if len(s.Methods) != 1 {
		t.Fatalf("methods: %+v", s.Methods)
	}
	mc := s.Methods[0]
	if mc.Method != "M" || mc.Queries != 4 || mc.Failures != 1 || mc.Canceled != 2 {
		t.Fatalf("counters: %+v", mc)
	}
	if s.Queries != 4 {
		t.Fatalf("total queries %d", s.Queries)
	}
}

func TestMetricsPagesAndWorkers(t *testing.T) {
	m := NewMetrics()
	m.RecordPages(3, 2, 7, 2, 10*time.Millisecond)
	m.RecordPages(1, 1, 1, 0, time.Millisecond)
	m.RecordWorkers(4, 40*time.Millisecond, 10*time.Millisecond)
	m.RecordContour(2 * time.Millisecond)

	s := m.Snapshot()
	if s.IndexPagesRead != 4 || s.SidecarPagesRead != 3 || s.CellPagesRead != 8 || s.CacheHits != 2 {
		t.Fatalf("pages: %+v", s)
	}
	if s.SimElapsed != 11*time.Millisecond {
		t.Fatalf("sim %v", s.SimElapsed)
	}
	if s.WorkerItems != 4 || s.WorkerBusy != 40*time.Millisecond || s.WorkerWall != 10*time.Millisecond {
		t.Fatalf("workers: %+v", s)
	}
	if s.WorkerConcurrency < 3.9 || s.WorkerConcurrency > 4.1 {
		t.Fatalf("concurrency %f", s.WorkerConcurrency)
	}
	if s.ContourAssemblies != 1 || s.ContourTime != 2*time.Millisecond {
		t.Fatalf("contours: %+v", s)
	}
	if out := s.String(); !strings.Contains(out, "pages:") {
		t.Fatalf("String: %s", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	slot := m.RegisterMethod("M")
	// 100 queries at ~1ms, 10 at ~100ms: p50 lands in the 1ms region, p95
	// at or above it, and the histogram total matches.
	for i := 0; i < 100; i++ {
		m.RecordQuery(slot, time.Millisecond, nil)
	}
	for i := 0; i < 10; i++ {
		m.RecordQuery(slot, 100*time.Millisecond, nil)
	}
	s := m.Snapshot()
	var total int64
	for _, b := range s.Latency {
		total += b.Count
	}
	if total != 110 {
		t.Fatalf("histogram total %d", total)
	}
	if s.LatencyP50 > 5*time.Millisecond {
		t.Fatalf("p50 %v", s.LatencyP50)
	}
	if s.LatencyP95 < s.LatencyP50 {
		t.Fatalf("p95 %v < p50 %v", s.LatencyP95, s.LatencyP50)
	}
}

func TestObserverZeroValueInert(t *testing.T) {
	var ob Observer
	tb := Begin(ob.Tracer, "M", KindValue, 0, 1)
	tb.Finish(nil)
	ob.Metrics.RecordQuery(0, time.Millisecond, nil)
}

func TestMetricsRecordBatch(t *testing.T) {
	var nilM *Metrics
	nilM.RecordBatch(4, 100, 10) // nil receiver stays inert

	m := NewMetrics()
	m.RecordBatch(1, 50, 0)
	m.RecordBatch(2, 80, 20)
	m.RecordBatch(16, 300, 700)
	m.RecordBatch(17, 300, 700) // next power-of-two bucket

	s := m.Snapshot()
	if s.Batches != 4 || s.BatchQueries != 1+2+16+17 {
		t.Fatalf("batches: %+v", s)
	}
	if s.BatchPhysicalPages != 50+80+300+300 || s.CoalescedPagesSaved != 20+700+700 {
		t.Fatalf("pages: physical=%d saved=%d", s.BatchPhysicalPages, s.CoalescedPagesSaved)
	}
	byMax := map[int64]int64{}
	for _, b := range s.BatchSizes {
		byMax[b.MaxSize] += b.Count
	}
	if byMax[1] != 1 || byMax[2] != 1 || byMax[16] != 1 || byMax[32] != 1 {
		t.Fatalf("size buckets: %v", byMax)
	}
	var total int64
	for _, b := range s.BatchSizes {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("bucket total %d", total)
	}
	if out := s.String(); !strings.Contains(out, "batches:") {
		t.Fatalf("String lacks batches block: %s", out)
	}
	// A batch-free snapshot omits the block.
	if out := NewMetrics().Snapshot().String(); strings.Contains(out, "batches:") {
		t.Fatalf("batch-free String shows batches block: %s", out)
	}
}

// TestMetricsRecordGroup: the admission-window queue counters — groups by
// release kind, waiters, summed and longest wait — and that recording them
// allocates nothing.
func TestMetricsRecordGroup(t *testing.T) {
	var nilM *Metrics
	nilM.RecordGroup(ReleaseExpiry, 3, time.Second, time.Second) // nil receiver stays inert

	m := NewMetrics()
	m.RecordGroup(ReleaseFreeSlot, 1, 0, 0)
	m.RecordGroup(ReleaseFreeSlot, 1, 0, 0)
	m.RecordGroup(ReleaseHandover, 4, 10*time.Millisecond, 4*time.Millisecond)
	m.RecordGroup(ReleaseExpiry, 2, 3*time.Millisecond, 2*time.Millisecond)
	s := m.Snapshot()
	if s.GroupsFreeSlot != 2 || s.GroupsHandover != 1 || s.GroupsExpired != 1 {
		t.Fatalf("groups: %+v", s)
	}
	if s.WindowWaiters != 6 || s.WindowWaitSum != 13*time.Millisecond || s.WindowWaitMax != 4*time.Millisecond {
		t.Fatalf("waits: %+v", s)
	}
	if out := s.String(); !strings.Contains(out, "window: free-slot=2 handover=1 expired=1 waiters=6 wait mean=2.167ms max=4ms") {
		t.Fatalf("String lacks the window line: %s", out)
	}
	if out := NewMetrics().Snapshot().String(); strings.Contains(out, "window:") {
		t.Fatalf("window-free String shows the window line: %s", out)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.RecordGroup(ReleaseFreeSlot, 1, 0, 0)
		m.RecordGroup(ReleaseHandover, 2, time.Millisecond, time.Millisecond)
	}); n != 0 {
		t.Fatalf("RecordGroup allocates %v per run", n)
	}
}

func TestBatchSizeBucketOf(t *testing.T) {
	cases := map[int]int64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 16: 16, 17: 32, 1 << 20: 1 << 16}
	for size, wantMax := range cases {
		m := NewMetrics()
		m.RecordBatch(size, 0, 0)
		var got int64
		for _, b := range m.Snapshot().BatchSizes {
			if b.Count > 0 {
				got = b.MaxSize
			}
		}
		if got != wantMax {
			t.Fatalf("size %d landed in bucket ≤%d, want ≤%d", size, got, wantMax)
		}
	}
}

func TestMetricsRecordUpdate(t *testing.T) {
	var nilM *Metrics
	nilM.RecordUpdate(1, 2, 3, 4, true) // nil receiver stays inert

	m := NewMetrics()
	m.RecordUpdate(16, 24, 62, 1, false)
	m.RecordUpdate(8, 10, 40, 0, true)

	s := m.Snapshot()
	if s.UpdateBatches != 2 || s.UpdatesApplied != 24 || s.UpdateCellsTouched != 34 {
		t.Fatalf("update counters: %+v", s)
	}
	if s.UpdatePagesWritten != 102 || s.EpochsRetired != 1 || s.RegroupEvents != 1 {
		t.Fatalf("update totals: written=%d retired=%d regroups=%d",
			s.UpdatePagesWritten, s.EpochsRetired, s.RegroupEvents)
	}
	if out := s.String(); !strings.Contains(out, "updates: batches=2") {
		t.Fatalf("String lacks updates block: %s", out)
	}
	// An update-free snapshot omits the block.
	if out := NewMetrics().Snapshot().String(); strings.Contains(out, "updates:") {
		t.Fatalf("update-free String shows updates block: %s", out)
	}
}

func TestMetricsRecordTiles(t *testing.T) {
	var nilM *Metrics
	nilM.RecordTiles(3, 1) // nil receiver stays inert

	m := NewMetrics()
	m.RecordTiles(63, 1)
	m.RecordTiles(0, 64)

	s := m.Snapshot()
	if s.TilesPruned != 63 || s.TilesScanned != 65 {
		t.Fatalf("tile counters: pruned=%d scanned=%d", s.TilesPruned, s.TilesScanned)
	}
	if out := s.String(); !strings.Contains(out, "tiles: pruned=63 scanned=65") {
		t.Fatalf("String lacks tiles block: %s", out)
	}
	// An untiled snapshot omits the block.
	if out := NewMetrics().Snapshot().String(); strings.Contains(out, "tiles:") {
		t.Fatalf("untiled String shows tiles block: %s", out)
	}
}
