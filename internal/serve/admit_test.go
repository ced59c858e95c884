package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fielddb"
	"fielddb/internal/obs"
)

// do runs one request through the server's handler without a listener.
func do(srv *Server, method, url, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec
}

// moved names the admission counters that differ between two snapshots.
func moved(before, after obs.AdmissionSnapshot) string {
	var names []string
	add := func(name string, b, a int64) {
		if a != b {
			names = append(names, fmt.Sprintf("%s%+d", name, a-b))
		}
	}
	for i, f := range after.Fields {
		b := before.Fields[i]
		add("admitted", b.Admitted, f.Admitted)
		add("borrowed", b.Borrowed, f.Borrowed)
		add("shed", b.Shed, f.Shed)
		add("degraded", b.Degraded, f.Degraded)
	}
	add("shared_admitted", before.SharedAdmitted, after.SharedAdmitted)
	add("shared_shed", before.SharedShed, after.SharedShed)
	add("drain_refused", before.DrainRefused, after.DrainRefused)
	return strings.Join(names, " ")
}

// TestServeAdmit walks the one gate over pool × pool state: the status, the
// Retry-After hint of a refusal, and the one counter the outcome moves. The
// pools are put in each state by filling the token channels directly, and the
// occupancy gauges must say so — they are those channels' lengths.
func TestServeAdmit(t *testing.T) {
	f, err := fielddb.TerrainDEM(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vr := db.ValueRange()
	span := fmt.Sprintf("lo=%g&hi=%g", vr.Lo, vr.Hi)

	type route struct{ method, url, body string }
	routes := map[string]route{
		"none":      {"GET", "/v1/fields", ""},
		"field":     {"GET", "/v1/fields/terrain/range?" + span, ""},
		"aggregate": {"GET", "/v1/fields/terrain/aggregate?" + span, ""},
		"shared": {"POST", "/v1/and",
			fmt.Sprintf(`{"conditions":[{"field":"terrain","lo":%g,"hi":%g}]}`, vr.Lo, vr.Hi)},
		"unknown field": {"GET", "/v1/fields/nope/range?" + span, ""},
	}
	states := map[string]func(*Server){
		"free":        func(*Server) {},
		"budget held": func(s *Server) { s.gates["terrain"].tokens <- struct{}{} },
		"exhausted": func(s *Server) {
			s.gates["terrain"].tokens <- struct{}{}
			s.overflow <- struct{}{}
		},
		"draining": (*Server).Drain,
	}
	for _, tc := range []struct {
		route, state string
		degrade      bool
		status       int
		moved        string
	}{
		{"none", "free", false, 200, ""},
		{"none", "exhausted", false, 200, ""},
		{"none", "draining", false, 503, "drain_refused+1"},
		{"field", "free", false, 200, "admitted+1"},
		{"field", "budget held", false, 200, "borrowed+1"},
		{"field", "exhausted", false, 429, "shed+1"},
		{"field", "exhausted", true, 429, "shed+1"}, // only aggregates degrade
		{"field", "draining", false, 503, "drain_refused+1"},
		{"aggregate", "free", true, 200, "admitted+1"},
		{"aggregate", "budget held", true, 200, "borrowed+1"},
		{"aggregate", "exhausted", false, 429, "shed+1"},
		{"aggregate", "exhausted", true, 200, "degraded+1"},
		{"aggregate", "draining", true, 503, "drain_refused+1"},
		{"shared", "free", false, 200, "shared_admitted+1"},
		{"shared", "budget held", false, 200, "shared_admitted+1"},
		{"shared", "exhausted", false, 429, "shared_shed+1"},
		{"shared", "draining", false, 503, "drain_refused+1"},
		{"unknown field", "exhausted", false, 404, ""}, // a typo consumes no capacity
	} {
		name := tc.route + "/" + tc.state
		srv := New(map[string]*Field{"terrain": {Querier: db}}, Config{
			FieldBudget: 1, Overflow: 1, RetryAfter: 3 * time.Second, DegradeToApprox: tc.degrade,
		})
		states[tc.state](srv)
		before := srv.Admission()
		wantBudget, wantOverflow := int64(0), int64(0)
		if tc.state == "budget held" || tc.state == "exhausted" {
			wantBudget = 1
		}
		if tc.state == "exhausted" {
			wantOverflow = 1
		}
		if before.Fields[0].BudgetInUse != wantBudget || before.OverflowInUse != wantOverflow {
			t.Fatalf("%s: gauges %d/%d, want %d/%d", name,
				before.Fields[0].BudgetInUse, before.OverflowInUse, wantBudget, wantOverflow)
		}
		rt := routes[tc.route]
		rec := do(srv, rt.method, rt.url, rt.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.status, rec.Body)
		}
		wantRetry := ""
		if tc.status == 429 || tc.status == 503 {
			wantRetry = "3"
		}
		if got := rec.Header().Get("Retry-After"); got != wantRetry {
			t.Errorf("%s: Retry-After %q, want %q", name, got, wantRetry)
		}
		after := srv.Admission()
		if got := moved(before, after); got != tc.moved {
			t.Errorf("%s: counters moved %q, want %q", name, got, tc.moved)
		}
		// Every token taken was returned: the gauges read as before.
		if after.Fields[0].BudgetInUse != wantBudget || after.OverflowInUse != wantOverflow {
			t.Errorf("%s: gauges after = %d/%d, want %d/%d", name,
				after.Fields[0].BudgetInUse, after.OverflowInUse, wantBudget, wantOverflow)
		}
		if degraded := strings.Contains(rec.Body.String(), `"degraded":true`); degraded != (tc.moved == "degraded+1") {
			t.Errorf("%s: degraded marker = %v in %s", name, degraded, rec.Body)
		}
	}
}

// TestServeAdmissionManyFields: every field's gate counts for itself, however
// many fields are served — there is no registry with a slot limit to fall
// off the end of.
func TestServeAdmissionManyFields(t *testing.T) {
	f, err := fielddb.TerrainDEM(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 65
	fields := make(map[string]*Field, n)
	for i := 0; i < n; i++ {
		fields[fmt.Sprintf("f%02d", i)] = &Field{Querier: db}
	}
	srv := New(fields, Config{})
	vr := db.ValueRange()
	for name := range fields {
		url := fmt.Sprintf("/v1/fields/%s/range?lo=%g&hi=%g", name, vr.Lo, vr.Hi)
		if rec := do(srv, "GET", url, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, rec.Code, rec.Body)
		}
	}
	rows := srv.Admission().Fields
	if len(rows) != n {
		t.Fatalf("%d admission rows, want %d", len(rows), n)
	}
	for _, row := range rows {
		if row.Admitted != 1 || row.BudgetInUse != 0 {
			t.Errorf("%s: %+v, want admitted 1 and the token returned", row.Field, row)
		}
	}
}

// fixedQuerier answers QueryMetrics with a fixed snapshot; nothing else is
// called by the endpoints under test.
type fixedQuerier struct {
	fielddb.Querier
	snap fielddb.MetricsSnapshot
}

func (f fixedQuerier) QueryMetrics() fielddb.MetricsSnapshot { return f.snap }

// TestServeMetricsTracesJSON pins the /metrics and /traces response bodies as
// literal JSON for a fixed registry and a fixed trace: the envelope, the key
// order inside every section, and every _ns key.
func TestServeMetricsTracesJSON(t *testing.T) {
	m := obs.NewMetrics()
	slot := m.RegisterMethod("I-Hilbert")
	m.RecordQuery(slot, 2*time.Millisecond, nil)
	m.RecordPages(4, 2, 6, 1, time.Millisecond)
	m.RecordBatch(3, 20, 40)
	m.RecordGroup(obs.ReleaseExpiry, 2, 4*time.Millisecond, 3*time.Millisecond)
	traces := fielddb.NewTraceCollector(4)
	traces.TraceQuery(&fielddb.QueryTrace{
		Method:   "I-Hilbert",
		Kind:     obs.KindValue,
		Lo:       700,
		Hi:       750,
		Begin:    time.Unix(1000, 42),
		Duration: 3 * time.Millisecond,
		Spans: []obs.Span{{Phase: obs.PhaseFilter, Duration: time.Millisecond,
			Pages: obs.PageCounts{Reads: 4, SeqReads: 4, SimElapsed: 2 * time.Millisecond}}},
		IO: obs.PageCounts{Reads: 4, SeqReads: 4, SimElapsed: 2 * time.Millisecond},
	})
	srv := New(map[string]*Field{
		"fixed": {Querier: fixedQuerier{snap: m.Snapshot()}, Traces: traces},
	}, Config{FieldBudget: 4, Overflow: 8})
	// One cross-field admission (refused later, for having no conditions), so
	// the admission section is not all zeros.
	if rec := do(srv, "POST", "/v1/and", `{"conditions":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty conjunction: %d", rec.Code)
	}
	for _, tc := range []struct{ url, want string }{
		{"/metrics", `{"admission":{"field_budget":4,"overflow":8,"fields":[{"field":"fixed","admitted":0,"borrowed":0,"shed_429":0,"budget_in_use":0}],"overflow_in_use":0,"shared_admitted":1,"shared_shed_429":0,"drain_refused_503":0},"fields":{"fixed":{"methods":[{"method":"I-Hilbert","queries":1,"failures":0,"canceled":0}],"queries":1,"latency_sum_ns":2000000,"latency":[{"upper_bound_ns":2048000,"count":1}],"latency_p50_ns":2048000,"latency_p95_ns":2048000,"index_pages_read":4,"sidecar_pages_read":2,"cell_pages_read":6,"cache_hits":1,"sim_elapsed_ns":1000000,"worker_items":0,"worker_busy_ns":0,"worker_wall_ns":0,"worker_concurrency":0,"contour_assemblies":0,"contour_time_ns":0,"batches":1,"batch_queries":3,"batch_sizes":[{"max_size":4,"count":1}],"batch_physical_pages":20,"coalesced_pages_saved":40,"groups_free_slot":0,"groups_handover":0,"groups_expired":1,"window_waiters":2,"window_wait_sum_ns":4000000,"window_wait_max_ns":3000000,"update_batches":0,"updates_applied":0,"update_cells_touched":0,"update_pages_written":0,"epochs_retired":0,"regroup_events":0,"tiles_pruned":0,"tiles_scanned":0,"aggregate_queries":0,"aggregate_fallbacks":0}}}` + "\n"},
		{"/traces", `{"fields":{"fixed":{"total":1,"traces":[{"method":"I-Hilbert","kind":"value","lo":700,"hi":750,"begin_unix_ns":1000000000042,"duration_ns":3000000,"spans":[{"phase":"filter","start_ns":0,"duration_ns":1000000,"pages":{"reads":4,"seq_reads":4,"rand_reads":0,"cache_hits":0,"sim_elapsed_ns":2000000}}],"io":{"reads":4,"seq_reads":4,"rand_reads":0,"cache_hits":0,"sim_elapsed_ns":2000000}}]}}}` + "\n"},
	} {
		rec := do(srv, "GET", tc.url, "")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: %d %q", tc.url, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s answers\n%s\nwant\n%s", tc.url, got, tc.want)
		}
	}
}
