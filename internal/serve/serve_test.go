package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fielddb"
)

// testField builds a small deterministic live database ("terrain") plus a
// read-only stored index of the same field ("frozen"), served together.
func testServer(t testing.TB, cfg Config, window time.Duration) (*Server, *httptest.Server, *fielddb.DB) {
	t.Helper()
	f, err := fielddb.TerrainDEM(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	traces := fielddb.NewTraceCollector(64)
	db, err := fielddb.Open(f, fielddb.Options{
		Method:      fielddb.IHilbert,
		Tracer:      traces,
		BatchWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	idxPath := filepath.Join(t.TempDir(), "frozen.fidx")
	if err := db.SaveIndex(idxPath); err != nil {
		t.Fatal(err)
	}
	si, err := fielddb.OpenIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { si.Close() })

	srv := New(map[string]*Field{
		"terrain": {Querier: db, DB: db, Traces: traces},
		"frozen":  {Querier: si},
	}, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, db
}

// getJSON fetches url and decodes the response body, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: %v in %q", url, err, body)
		}
	}
	return resp.StatusCode
}

// postJSON posts body to url and decodes the response, returning the status.
func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: %v in %q", url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestServeGoldenEndpoints drives every read endpoint and checks the response
// against the facade's own answer for the same query — the engine's
// deterministic simulated I/O makes the comparison exact.
func TestServeGoldenEndpoints(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	ctx := context.Background()
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6

	// /healthz is byte-stable.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != `{"draining":false,"status":"ok"}` {
		t.Fatalf("healthz = %s", got)
	}

	// Listing: both fields, sorted, with value range and writability.
	var listing struct {
		Fields []struct {
			Name     string  `json:"name"`
			Method   string  `json:"method"`
			ValueLo  float64 `json:"value_lo"`
			ValueHi  float64 `json:"value_hi"`
			Writable bool    `json:"writable"`
		} `json:"fields"`
	}
	if st := getJSON(t, hs.URL+"/v1/fields", &listing); st != http.StatusOK {
		t.Fatalf("list: %d", st)
	}
	if len(listing.Fields) != 2 || listing.Fields[0].Name != "frozen" || listing.Fields[1].Name != "terrain" {
		t.Fatalf("listing = %+v", listing)
	}
	if f := listing.Fields[1]; !f.Writable || f.Method != "I-Hilbert" || f.ValueLo != vr.Lo || f.ValueHi != vr.Hi {
		t.Fatalf("terrain info = %+v", f)
	}
	if listing.Fields[0].Writable {
		t.Fatal("stored index listed as writable")
	}

	// /range against the facade's answer.
	want, err := db.ValueQueryContext(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var rangeResp struct {
		Field  string `json:"field"`
		Result struct {
			Regions  int     `json:"regions"`
			Area     float64 `json:"area"`
			Isolines int     `json:"isolines"`
			IO       struct {
				Reads        int   `json:"reads"`
				SimElapsedNs int64 `json:"sim_elapsed_ns"`
			} `json:"io"`
			Geometry [][][2]float64 `json:"geometry"`
		} `json:"result"`
	}
	url := fmt.Sprintf("%s/v1/fields/terrain/range?lo=%g&hi=%g", hs.URL, lo, hi)
	if st := getJSON(t, url, &rangeResp); st != http.StatusOK {
		t.Fatalf("range: %d", st)
	}
	if rangeResp.Field != "terrain" ||
		rangeResp.Result.Regions != len(want.Regions) ||
		math.Abs(rangeResp.Result.Area-want.Area) > 1e-9 ||
		rangeResp.Result.IO.Reads != want.IO.Reads ||
		rangeResp.Result.IO.SimElapsedNs != int64(want.IO.SimElapsed) {
		t.Fatalf("range diverges from facade: %+v vs %+v", rangeResp.Result, want)
	}
	if rangeResp.Result.Geometry != nil {
		t.Fatal("geometry returned without geometry=1")
	}
	if st := getJSON(t, url+"&geometry=1", &rangeResp); st != http.StatusOK {
		t.Fatalf("range geometry: %d", st)
	}
	if len(rangeResp.Result.Geometry) != len(want.Regions) {
		t.Fatalf("geometry rings = %d, want %d", len(rangeResp.Result.Geometry), len(want.Regions))
	}

	// /above and /below complete the open end from the value range.
	wantAbove, err := db.ValueAboveContext(ctx, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st := getJSON(t, fmt.Sprintf("%s/v1/fields/terrain/above?lo=%g", hs.URL, hi), &rangeResp); st != http.StatusOK {
		t.Fatalf("above: %d", st)
	}
	if rangeResp.Result.Regions != len(wantAbove.Regions) || math.Abs(rangeResp.Result.Area-wantAbove.Area) > 1e-9 {
		t.Fatalf("above diverges: %+v", rangeResp.Result)
	}
	wantBelow, err := db.ValueBelowContext(ctx, lo)
	if err != nil {
		t.Fatal(err)
	}
	if st := getJSON(t, fmt.Sprintf("%s/v1/fields/terrain/below?hi=%g", hs.URL, lo), &rangeResp); st != http.StatusOK {
		t.Fatalf("below: %d", st)
	}
	if rangeResp.Result.Regions != len(wantBelow.Regions) || math.Abs(rangeResp.Result.Area-wantBelow.Area) > 1e-9 {
		t.Fatalf("below diverges: %+v", rangeResp.Result)
	}

	// /point against the facade.
	wantV, err := db.PointQueryContext(ctx, fielddb.Point{X: 10.5, Y: 20.25})
	if err != nil {
		t.Fatal(err)
	}
	var pointResp struct {
		Value float64 `json:"value"`
	}
	if st := getJSON(t, hs.URL+"/v1/fields/terrain/point?x=10.5&y=20.25", &pointResp); st != http.StatusOK {
		t.Fatalf("point: %d", st)
	}
	if pointResp.Value != wantV {
		t.Fatalf("point = %g, want %g", pointResp.Value, wantV)
	}

	// /contour against the facade.
	level := (lo + hi) / 2
	wantLines, err := db.ContoursContext(ctx, level)
	if err != nil {
		t.Fatal(err)
	}
	var contourResp struct {
		Polylines int            `json:"polylines"`
		Geometry  [][][2]float64 `json:"geometry"`
	}
	curl := fmt.Sprintf("%s/v1/fields/terrain/contour?level=%g&geometry=1", hs.URL, level)
	if st := getJSON(t, curl, &contourResp); st != http.StatusOK {
		t.Fatalf("contour: %d", st)
	}
	if contourResp.Polylines != len(wantLines) || len(contourResp.Geometry) != len(wantLines) {
		t.Fatalf("contour = %+v, want %d polylines", contourResp, len(wantLines))
	}

	// /batch: positional results identical to solo, with shared-scan stats.
	var batchResp struct {
		Results []*struct {
			Regions int     `json:"regions"`
			Area    float64 `json:"area"`
			IO      struct {
				Reads int `json:"reads"`
			} `json:"io"`
		} `json:"results"`
		Batch *struct {
			Size            int `json:"size"`
			PhysicalReads   int `json:"physical_reads"`
			AttributedReads int `json:"attributed_reads"`
			PagesSaved      int `json:"pages_saved"`
		} `json:"batch"`
	}
	bbody := fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g]]}`, lo, hi, lo, hi)
	if st := postJSON(t, hs.URL+"/v1/fields/terrain/batch", bbody, &batchResp); st != http.StatusOK {
		t.Fatalf("batch: %d", st)
	}
	if len(batchResp.Results) != 2 || batchResp.Batch == nil {
		t.Fatalf("batch = %+v", batchResp)
	}
	for i, r := range batchResp.Results {
		if r == nil || r.Regions != len(want.Regions) || math.Abs(r.Area-want.Area) > 1e-9 || r.IO.Reads != want.IO.Reads {
			t.Fatalf("batch member %d diverges from solo: %+v", i, r)
		}
	}
	if b := batchResp.Batch; b.Size != 2 || b.AttributedReads != 2*want.IO.Reads ||
		b.PagesSaved != b.AttributedReads-b.PhysicalReads || b.PagesSaved <= 0 {
		t.Fatalf("batch stats = %+v (solo reads %d)", batchResp.Batch, want.IO.Reads)
	}

	// /v1/and: conjunction across the live and stored surface of one field.
	wantAnd, err := fielddb.AndQueriers(ctx, []fielddb.Querier{db, db},
		[]fielddb.Interval{{Lo: lo, Hi: vr.Hi}, {Lo: vr.Lo, Hi: hi}})
	if err != nil {
		t.Fatal(err)
	}
	var andResp struct {
		Regions  int     `json:"regions"`
		Area     float64 `json:"area"`
		PerField []any   `json:"per_field"`
	}
	abody := fmt.Sprintf(`{"conditions":[{"field":"terrain","lo":%g,"hi":%g},{"field":"frozen","lo":%g,"hi":%g}]}`,
		lo, vr.Hi, vr.Lo, hi)
	if st := postJSON(t, hs.URL+"/v1/and", abody, &andResp); st != http.StatusOK {
		t.Fatalf("and: %d", st)
	}
	if andResp.Regions != len(wantAnd.Regions) || math.Abs(andResp.Area-wantAnd.Area) > 1e-9 || len(andResp.PerField) != 2 {
		t.Fatalf("and = %+v, want %d regions area %g", andResp, len(wantAnd.Regions), wantAnd.Area)
	}

	// /update applies sample updates and reports the commit.
	var updResp struct {
		Epoch          uint64 `json:"epoch"`
		SamplesApplied int    `json:"samples_applied"`
	}
	ubody := fmt.Sprintf(`{"updates":[{"sample":0,"value":%g},{"sample":1,"value":%g}]}`, vr.Lo+1, vr.Lo+2)
	if st := postJSON(t, hs.URL+"/v1/fields/terrain/update", ubody, &updResp); st != http.StatusOK {
		t.Fatalf("update: %d", st)
	}
	if updResp.SamplesApplied != 2 || updResp.Epoch == 0 {
		t.Fatalf("update = %+v", updResp)
	}

	// /metrics and /traces reflect the drive above.
	var metricsResp struct {
		Fields map[string]struct {
			Queries uint64 `json:"queries"`
		} `json:"fields"`
	}
	if st := getJSON(t, hs.URL+"/metrics", &metricsResp); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if metricsResp.Fields["terrain"].Queries == 0 {
		t.Fatalf("metrics = %+v", metricsResp)
	}
	var tracesResp struct {
		Fields map[string]struct {
			Total  uint64 `json:"total"`
			Traces []struct {
				Method string `json:"method"`
			} `json:"traces"`
		} `json:"fields"`
	}
	if st := getJSON(t, hs.URL+"/traces?field=terrain", &tracesResp); st != http.StatusOK {
		t.Fatalf("traces: %d", st)
	}
	tf := tracesResp.Fields["terrain"]
	if tf.Total == 0 || len(tf.Traces) == 0 || tf.Traces[0].Method == "" {
		t.Fatalf("traces = %+v", tracesResp)
	}
}

// TestServeErrors walks the failure surface: 404s, 400s from parameter and
// body validation, and the 501 capability gap of an update to a stored index.
// A point query on an index saved from a TIN, whose file carries its cell
// buckets, answers 200 with the DB's value.
func TestServeErrors(t *testing.T) {
	_, hs, _ := testServer(t, Config{}, 0)
	mesh, err := fielddb.NoiseTIN(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	tinDB, err := fielddb.Open(mesh, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tinPath := filepath.Join(t.TempDir(), "tin.fidx")
	if err := tinDB.SaveIndex(tinPath); err != nil {
		t.Fatal(err)
	}
	tinPoint, err := tinDB.PointQuery(fielddb.Point{X: 50, Y: 50})
	if err != nil {
		t.Fatal(err)
	}
	tinDB.Close()
	frozenTIN, err := fielddb.OpenIndex(tinPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frozenTIN.Close() })
	tinHS := httptest.NewServer(New(map[string]*Field{"frozen-tin": {Querier: frozenTIN}}, Config{}).Handler())
	t.Cleanup(tinHS.Close)
	// Past maxBatchBody the bounded reader cuts the body off before its JSON
	// value starts, so a well-formed request behind the padding is refused.
	padding := strings.Repeat(" ", 9<<20)
	cases := []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"unknown field", "GET", "/v1/fields/nope", "", 404},
		{"unknown field range", "GET", "/v1/fields/nope/range?lo=1&hi=2", "", 404},
		{"unknown traces field", "GET", "/traces?field=nope", "", 404},
		{"missing params", "GET", "/v1/fields/terrain/range", "", 400},
		{"non-numeric param", "GET", "/v1/fields/terrain/range?lo=abc&hi=2", "", 400},
		{"inverted interval", "GET", "/v1/fields/terrain/range?lo=5&hi=1", "", 400},
		{"nan bound", "GET", "/v1/fields/terrain/range?lo=NaN&hi=2", "", 400},
		{"inf bound", "GET", "/v1/fields/terrain/above?lo=%2BInf", "", 400},
		{"bad timeout", "GET", "/v1/fields/terrain/range?lo=1&hi=2&timeout_ms=zero", "", 400},
		{"negative timeout", "GET", "/v1/fields/terrain/range?lo=1&hi=2&timeout_ms=-5", "", 400},
		{"malformed batch", "POST", "/v1/fields/terrain/batch", `{"intervals":`, 400},
		{"unknown batch key", "POST", "/v1/fields/terrain/batch", `{"ranges":[[1,2]]}`, 400},
		{"empty batch", "POST", "/v1/fields/terrain/batch", `{"intervals":[]}`, 400},
		{"bad batch member", "POST", "/v1/fields/terrain/batch", `{"intervals":[[1,2],[5,1]]}`, 400},
		{"oversized batch", "POST", "/v1/fields/terrain/batch", padding + `{"intervals":[[1,2]]}`, 400},
		{"malformed update", "POST", "/v1/fields/terrain/update", `{`, 400},
		{"empty update", "POST", "/v1/fields/terrain/update", `{"updates":[]}`, 400},
		{"update read-only", "POST", "/v1/fields/frozen/update", `{"updates":[{"sample":0,"value":1}]}`, 501},
		{"point on stored index", "GET", "/v1/fields/frozen-tin/point?x=50&y=50", "", 200},
		{"malformed and", "POST", "/v1/and", `[]`, 400},
		{"oversized and", "POST", "/v1/and", padding + `{"conditions":[{"field":"terrain","lo":1,"hi":2}]}`, 400},
		{"and unknown field", "POST", "/v1/and", `{"conditions":[{"field":"nope","lo":1,"hi":2}]}`, 404},
		{"and no conditions", "POST", "/v1/and", `{"conditions":[]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on := hs // which serves every field but the stored TIN
			if strings.HasPrefix(tc.url, "/v1/fields/frozen-tin/") {
				on = tinHS
			}
			var resp *http.Response
			var err error
			if tc.method == "GET" {
				resp, err = http.Get(on.URL + tc.url)
			} else {
				resp, err = http.Post(on.URL+tc.url, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, bytes.TrimSpace(body))
			}
			if tc.want == http.StatusOK {
				var point struct {
					Value float64 `json:"value"`
				}
				if err := json.Unmarshal(body, &point); err != nil || point.Value != tinPoint {
					t.Fatalf("point on the stored TIN: %s, the DB's %g", bytes.TrimSpace(body), tinPoint)
				}
				return
			}
			var envelope struct {
				Error struct {
					Status  int    `json:"status"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &envelope); err != nil {
				t.Fatalf("error body not an envelope: %q", body)
			}
			if envelope.Error.Status != tc.want || envelope.Error.Message == "" {
				t.Fatalf("envelope = %+v", envelope)
			}
		})
	}
}

// slowQuerier wraps a Querier so value-range queries block until released —
// the hook behind the deadline, shedding, and drain tests.
type slowQuerier struct {
	fielddb.Querier
	entered chan struct{}
	release chan struct{}
}

func (s *slowQuerier) ValueQueryContext(ctx context.Context, lo, hi float64) (*fielddb.Result, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.release:
		return s.Querier.ValueQueryContext(ctx, lo, hi)
	}
}

// slowServer wires a slowQuerier-wrapped field into a fresh server.
func slowServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *slowQuerier) {
	t.Helper()
	f, err := fielddb.TerrainDEM(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sq := &slowQuerier{
		Querier: db,
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	srv := New(map[string]*Field{"terrain": {Querier: sq}}, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, sq
}

// TestServeDeadline: a query that outlives its deadline answers 504, both for
// the client-supplied timeout_ms and the server default.
func TestServeDeadline(t *testing.T) {
	_, hs, _ := slowServer(t, Config{DefaultTimeout: 50 * time.Millisecond})
	for _, url := range []string{
		hs.URL + "/v1/fields/terrain/range?lo=1&hi=2&timeout_ms=50",
		hs.URL + "/v1/fields/terrain/range?lo=1&hi=2", // server default
	} {
		var envelope struct {
			Error struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		if st := getJSON(t, url, &envelope); st != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504", url, st)
		}
		if !strings.Contains(envelope.Error.Message, "deadline") {
			t.Fatalf("message %q", envelope.Error.Message)
		}
	}
	// A timeout_ms too large for a time.Duration is capped at MaxTimeout, not
	// wrapped into a deadline that has already passed.
	_, live, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	url := fmt.Sprintf("%s/v1/fields/terrain/range?lo=%g&hi=%g&timeout_ms=10000000000000", live.URL, vr.Lo, vr.Hi)
	if st := getJSON(t, url, nil); st != http.StatusOK {
		t.Fatalf("overflowing timeout_ms: status %d, want 200", st)
	}
}

// TestServeInFlightCap: with the cap at one, a second concurrent request is
// shed with 429 + Retry-After while the first completes normally.
func TestServeInFlightCap(t *testing.T) {
	_, hs, sq := slowServer(t, Config{MaxInFlight: 1, RetryAfter: 3 * time.Second})
	url := hs.URL + "/v1/fields/terrain/range?lo=1&hi=2"

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			firstDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-sq.entered // the first request holds the only slot

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q", ra)
	}

	close(sq.release)
	if st := <-firstDone; st != http.StatusOK {
		t.Fatalf("first request: %d", st)
	}
}

// TestServeDrain: a drain started mid-request refuses new work with 503 and
// waits for the admitted request, which still gets its full 200 response.
func TestServeDrain(t *testing.T) {
	srv, hs, sq := slowServer(t, Config{})
	url := hs.URL + "/v1/fields/terrain/range?lo=1&hi=2"

	type outcome struct {
		status int
		body   []byte
	}
	admitted := make(chan outcome, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			admitted <- outcome{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		admitted <- outcome{resp.StatusCode, body}
	}()
	<-sq.entered

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the drain waits.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", resp.StatusCode)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	default:
	}

	// Releasing the admitted request completes both it and the drain.
	close(sq.release)
	out := <-admitted
	if out.status != http.StatusOK {
		t.Fatalf("admitted request: %d (%s)", out.status, bytes.TrimSpace(out.body))
	}
	var ok struct {
		Result *json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out.body, &ok); err != nil || ok.Result == nil {
		t.Fatalf("admitted response truncated: %q", out.body)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last request finished")
	}

	// Health keeps answering, reporting the drain.
	var health struct {
		Draining bool `json:"draining"`
	}
	if st := getJSON(t, hs.URL+"/healthz", &health); st != http.StatusOK || !health.Draining {
		t.Fatalf("healthz during drain: %d %+v", st, health)
	}
}

// TestServeConcurrentCoalescing exercises the whole stack under -race:
// concurrent HTTP clients issuing overlapping value queries through the
// admission window must coalesce onto shared scans (CoalescedPagesSaved
// moves) while every response stays identical to solo execution. The window
// shares a scan only among queries that find every execution slot (one per
// core) busy, and these queries are far too short to keep the cores busy by
// themselves: the test first parks one request per slot inside its trace
// hook, so the clients meet a saturated engine and their groups are released
// by window expiry alone.
func TestServeConcurrentCoalescing(t *testing.T) {
	slots := runtime.GOMAXPROCS(0)
	_, hs, db := testServer(t, Config{MaxInFlight: 128 + slots}, 2*time.Millisecond)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6
	want, err := db.ValueQueryContext(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/fields/terrain/range?lo=%g&hi=%g", hs.URL, lo, hi)

	const clients, rounds = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, slots+clients*rounds)

	// A query's trace is delivered while it still holds its slot.
	var traced atomic.Int32
	parked, unpark := make(chan struct{}, slots), make(chan struct{})
	db.SetTracer(fielddb.TracerFunc(func(*fielddb.QueryTrace) {
		if traced.Add(1) <= int32(slots) {
			parked <- struct{}{}
			<-unpark
		}
	}))
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("slot holder: status %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < slots; i++ {
		<-parked
	}
	var clientsDone sync.WaitGroup
	clientsDone.Add(clients)
	go func() {
		clientsDone.Wait()
		close(unpark)
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer clientsDone.Done()
			for r := 0; r < rounds; r++ {
				var out struct {
					Result struct {
						Area float64 `json:"area"`
						IO   struct {
							Reads int `json:"reads"`
						} `json:"io"`
					} `json:"result"`
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					continue
				}
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					continue
				}
				if math.Abs(out.Result.Area-want.Area) > 1e-9 || out.Result.IO.Reads != want.IO.Reads {
					errs <- fmt.Errorf("coalesced answer diverges: %+v", out.Result)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if saved := db.QueryMetrics().CoalescedPagesSaved; saved == 0 {
		t.Fatal("concurrent clients coalesced nothing (CoalescedPagesSaved == 0)")
	}
}
