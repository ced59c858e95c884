package obs

import (
	"encoding/json"
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

	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, key := range []string{`"method"`, `"begin_unix_ns"`, `"duration_ns"`, `"phase":"filter"`, `"sim_elapsed_ns"`} {
		if !strings.Contains(s, key) {
			t.Fatalf("marshaled trace misses %s: %s", key, s)
		}
	}
	if strings.Contains(s, `"err"`) {
		t.Fatalf("empty err not omitted: %s", s)
	}

	tr.Err = "context canceled"
	if b, _ = json.Marshal(tr.View()); !strings.Contains(string(b), `"err":"context canceled"`) {
		t.Fatalf("err not carried: %s", b)
	}
}

// TestSnapshotView pins the wire form of /metrics against a registry that has
// recorded real traffic, so every derived field crosses the boundary.
func TestSnapshotView(t *testing.T) {
	m := NewMetrics()
	slot := m.RegisterMethod("I-Hilbert")
	m.RecordQuery(slot, 2*time.Millisecond, nil)
	m.RecordPages(4, 2, 6, 1, time.Millisecond)
	m.RecordContour(time.Millisecond)
	m.RecordBatch(3, 20, 40)
	m.RecordGroup(ReleaseFreeSlot, 1, 0, 0)
	m.RecordGroup(ReleaseHandover, 3, 5*time.Millisecond, 2*time.Millisecond)
	m.RecordGroup(ReleaseExpiry, 2, 4*time.Millisecond, 3*time.Millisecond)

	v := m.Snapshot().View()
	if v.Queries != 1 || len(v.Methods) != 1 || v.Methods[0].Method != "I-Hilbert" {
		t.Fatalf("methods = %+v", v)
	}
	if v.LatencySumNs != int64(2*time.Millisecond) || len(v.Latency) == 0 {
		t.Fatalf("latency = %+v", v)
	}
	if v.ContourAssemblies != 1 || v.ContourTimeNs == 0 {
		t.Fatalf("contour = %+v", v)
	}
	if v.Batches != 1 || v.BatchQueries != 3 || v.BatchPhysicalPages != 20 ||
		v.CoalescedPagesSaved != 40 || len(v.BatchSizes) == 0 {
		t.Fatalf("batch = %+v", v)
	}

	if v.GroupsFreeSlot != 1 || v.GroupsHandover != 1 || v.GroupsExpired != 1 || v.WindowWaiters != 5 ||
		v.WindowWaitSumNs != int64(9*time.Millisecond) || v.WindowWaitMaxNs != int64(3*time.Millisecond) {
		t.Fatalf("window queue = %+v", v)
	}

	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, key := range []string{`"queries":1`, `"coalesced_pages_saved":40`, `"groups_handover":1`, `"window_wait_max_ns":3000000`, `"latency_p50_ns"`, `"upper_bound_ns"`, `"max_size"`} {
		if !strings.Contains(s, key) {
			t.Fatalf("marshaled snapshot misses %s: %s", key, s)
		}
	}
}
