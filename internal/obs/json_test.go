package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTraceView pins the wire contract of /traces: snake_case keys, phases by
// name, durations as explicit _ns integers, errors omitted when empty.
func TestTraceView(t *testing.T) {
	begin := time.Unix(1000, 42)
	tr := &QueryTrace{
		Method:   "I-Hilbert",
		Kind:     KindValue,
		Lo:       700,
		Hi:       750,
		Begin:    begin,
		Duration: 3 * time.Millisecond,
		Spans: []Span{
			{Phase: PhaseFilter, Start: 0, Duration: time.Millisecond,
				Pages: PageCounts{Reads: 4, SeqReads: 4, SimElapsed: 2 * time.Millisecond}},
			{Phase: PhaseRefine, Start: time.Millisecond, Duration: 2 * time.Millisecond,
				Pages: PageCounts{Reads: 10, RandReads: 10, CacheHits: 3}},
		},
		IO: PageCounts{Reads: 14, SeqReads: 4, RandReads: 10, CacheHits: 3},
	}
	v := tr.View()
	if v.Method != "I-Hilbert" || v.Kind != KindValue || v.Lo != 700 || v.Hi != 750 {
		t.Fatalf("header = %+v", v)
	}
	if v.BeginUnixNs != begin.UnixNano() || v.DurationNs != int64(3*time.Millisecond) {
		t.Fatalf("times = %d %d", v.BeginUnixNs, v.DurationNs)
	}
	if len(v.Spans) != 2 || v.Spans[0].Phase != "filter" || v.Spans[1].Phase != "refine" {
		t.Fatalf("spans = %+v", v.Spans)
	}
	if v.Spans[0].Pages.SimElapsedNs != int64(2*time.Millisecond) || v.Spans[1].Pages.CacheHits != 3 {
		t.Fatalf("span pages = %+v", v.Spans)
	}
	if v.IO.Reads != 14 || v.IO.SeqReads != 4 || v.IO.RandReads != 10 {
		t.Fatalf("io = %+v", v.IO)
	}

	// The whole wire form, literally: key order, every _ns key, and the empty
	// err omitted.
	const want = `{"method":"I-Hilbert","kind":"value","lo":700,"hi":750,"begin_unix_ns":1000000000042,"duration_ns":3000000,"spans":[{"phase":"filter","start_ns":0,"duration_ns":1000000,"pages":{"reads":4,"seq_reads":4,"rand_reads":0,"cache_hits":0,"sim_elapsed_ns":2000000}},{"phase":"refine","start_ns":1000000,"duration_ns":2000000,"pages":{"reads":10,"seq_reads":0,"rand_reads":10,"cache_hits":3,"sim_elapsed_ns":0}}],"io":{"reads":14,"seq_reads":4,"rand_reads":10,"cache_hits":3,"sim_elapsed_ns":0}}`
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("trace marshals to\n%s\nwant\n%s", b, want)
	}

	tr.Err = "context canceled"
	if b, _ = json.Marshal(tr.View()); !strings.Contains(string(b), `"err":"context canceled"`) {
		t.Fatalf("err not carried: %s", b)
	}
}

// emptySnapshotJSON is the wire form of a registry that recorded nothing: the
// three slice members are omitted, every scalar is present.
const emptySnapshotJSON = `{"queries":0,"latency_sum_ns":0,"latency_p50_ns":0,"latency_p95_ns":0,"index_pages_read":0,"sidecar_pages_read":0,"cell_pages_read":0,"cache_hits":0,"sim_elapsed_ns":0,"worker_items":0,"worker_busy_ns":0,"worker_wall_ns":0,"worker_concurrency":0,"contour_assemblies":0,"contour_time_ns":0,"batches":0,"batch_queries":0,"batch_physical_pages":0,"coalesced_pages_saved":0,"groups_free_slot":0,"groups_handover":0,"groups_expired":0,"window_waiters":0,"window_wait_sum_ns":0,"window_wait_max_ns":0,"update_batches":0,"updates_applied":0,"update_cells_touched":0,"update_pages_written":0,"epochs_retired":0,"regroup_events":0,"tiles_pruned":0,"tiles_scanned":0,"aggregate_queries":0,"aggregate_fallbacks":0}`

// TestSnapshotJSON pins the wire form of /metrics — key names, key order,
// every duration an integer-nanosecond _ns key — as literal JSON for a
// registry that has recorded one of everything, so every derived field
// crosses the boundary, and for one that has recorded nothing.
func TestSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	slot := m.RegisterMethod("I-Hilbert")
	m.RegisterMethod("LinearScan")
	m.RecordQuery(slot, 2*time.Millisecond, nil)
	m.RecordQuery(slot, 30*time.Second, errors.New("boom"))
	m.RecordPages(4, 2, 6, 1, time.Millisecond)
	m.RecordWorkers(8, 6*time.Millisecond, 4*time.Millisecond)
	m.RecordContour(time.Millisecond)
	m.RecordBatch(3, 20, 40)
	m.RecordGroup(ReleaseFreeSlot, 1, 0, 0)
	m.RecordGroup(ReleaseHandover, 3, 5*time.Millisecond, 2*time.Millisecond)
	m.RecordGroup(ReleaseExpiry, 2, 4*time.Millisecond, 3*time.Millisecond)
	m.RecordUpdate(16, 40, 12, 1, true)
	m.RecordTiles(5, 11)
	m.RecordAggregate(true)
	const populated = `{"methods":[{"method":"I-Hilbert","queries":2,"failures":1,"canceled":0},{"method":"LinearScan","queries":0,"failures":0,"canceled":0}],"queries":2,"latency_sum_ns":30002000000,"latency":[{"upper_bound_ns":2048000,"count":1},{"upper_bound_ns":0,"count":1}],"latency_p50_ns":2048000,"latency_p95_ns":16777216000,"index_pages_read":4,"sidecar_pages_read":2,"cell_pages_read":6,"cache_hits":1,"sim_elapsed_ns":1000000,"worker_items":8,"worker_busy_ns":6000000,"worker_wall_ns":4000000,"worker_concurrency":1.5,"contour_assemblies":1,"contour_time_ns":1000000,"batches":1,"batch_queries":3,"batch_sizes":[{"max_size":4,"count":1}],"batch_physical_pages":20,"coalesced_pages_saved":40,"groups_free_slot":1,"groups_handover":1,"groups_expired":1,"window_waiters":5,"window_wait_sum_ns":9000000,"window_wait_max_ns":3000000,"update_batches":1,"updates_applied":16,"update_cells_touched":40,"update_pages_written":12,"epochs_retired":1,"regroup_events":1,"tiles_pruned":5,"tiles_scanned":11,"aggregate_queries":1,"aggregate_fallbacks":1}`
	var none *Metrics
	for _, tc := range []struct {
		name string
		snap Snapshot
		want string
	}{
		{"populated", m.Snapshot(), populated},
		{"empty", NewMetrics().Snapshot(), emptySnapshotJSON},
		{"nil registry", none.Snapshot(), emptySnapshotJSON},
	} {
		got, err := json.Marshal(tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s snapshot marshals to\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
