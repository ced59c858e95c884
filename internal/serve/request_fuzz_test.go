package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fielddb"
)

// fuzzRoutes are the endpoints FuzzServeRequest drives: every one whose
// parameters or body a client writes, on a live field — and, through /and
// bodies, a stored one.
var fuzzRoutes = []string{
	"GET /v1/fields/terrain/range",
	"GET /v1/fields/terrain/above",
	"GET /v1/fields/terrain/below",
	"GET /v1/fields/terrain/point",
	"GET /v1/fields/terrain/contour",
	"GET /v1/fields/terrain/aggregate",
	"POST /v1/fields/terrain/batch",
	"POST /v1/fields/terrain/update",
	"POST /v1/and",
}

// FuzzServeRequest: whatever query string or body a client sends, the server
// never panics and never answers 500. What it refuses it answers 400 — or 404,
// for an /and condition naming no field — allocating no more than
// wireAllocFactor bytes per input byte beyond wireAllocSlack, as DecodeFrame
// does. Every number it accepts is the one strconv.ParseFloat reads: a 200
// echoes each bound, coordinate, level and tolerance it was given. Each input
// runs on a fresh live field, so an update cannot leak into the next.
func FuzzServeRequest(f *testing.F) {
	f.Add(uint8(0), "lo=40&hi=60", []byte(nil))
	f.Add(uint8(0), "lo=40&hi=60&geometry=1&timeout_ms=2000", []byte(nil))
	f.Add(uint8(0), "lo=abc&hi=2", []byte(nil))
	f.Add(uint8(0), "lo=5&hi=1", []byte(nil))
	f.Add(uint8(0), "lo=NaN&hi=2", []byte(nil))
	f.Add(uint8(0), "lo=1&hi=2&timeout_ms=-5", []byte(nil))
	f.Add(uint8(1), "lo=%2BInf", []byte(nil))
	f.Add(uint8(1), "lo=60", []byte(nil))
	f.Add(uint8(2), "hi=40", []byte(nil))
	f.Add(uint8(3), "x=10.5&y=20.25", []byte(nil))
	f.Add(uint8(3), "x=-1e9&y=1", []byte(nil))
	f.Add(uint8(4), "level=50&geometry=1", []byte(nil))
	f.Add(uint8(5), "lo=40&hi=60", []byte(nil))
	f.Add(uint8(5), "lo=40&hi=60&max_err=1e-12", []byte(nil))
	f.Add(uint8(5), "lo=40&hi=60&max_err=-1", []byte(nil))
	f.Add(uint8(6), "", []byte(`{"intervals":[[40,60],[40,45]]}`))
	f.Add(uint8(6), "geometry=1", []byte(`{"intervals":[[1,2],[5,1]]}`))
	f.Add(uint8(6), "", []byte(`{"ranges":[[1,2]]}`))
	f.Add(uint8(6), "", []byte(`{"intervals":[]}`))
	f.Add(uint8(7), "", []byte(`{"updates":[{"sample":0,"value":41},{"sample":1,"value":42}]}`))
	f.Add(uint8(7), "", []byte(`{"updates":[{"sample":-1,"value":1}]}`))
	f.Add(uint8(7), "", []byte(`{`))
	f.Add(uint8(8), "", []byte(`{"conditions":[{"field":"terrain","lo":40,"hi":90},{"field":"frozen","lo":10,"hi":60}]}`))
	f.Add(uint8(8), "", []byte(`{"conditions":[{"field":"nope","lo":1,"hi":2}]}`))
	f.Add(uint8(8), "", []byte(`{"conditions":[]}`))

	dem, err := fielddb.TerrainDEM(16, 5)
	if err != nil {
		f.Fatal(err)
	}
	db, err := fielddb.Open(dem, fielddb.Options{})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "frozen.fidx")
	if err := db.SaveIndex(path); err != nil {
		f.Fatal(err)
	}
	db.Close()
	frozen, err := fielddb.OpenIndex(path)
	if err != nil {
		f.Fatal(err)
	}
	defer frozen.Close()

	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		dem, err := fielddb.TerrainDEM(16, 5)
		if err != nil {
			t.Fatal(err)
		}
		db, err := fielddb.Open(dem, fielddb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}, "frozen": {Querier: frozen}}, Config{})
		method, path, _ := strings.Cut(fuzzRoutes[int(route)%len(fuzzRoutes)], " ")
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)

		resp := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			checkEchoes(t, path, query, body, resp)
		case http.StatusGatewayTimeout:
			// timeout_ms ran out: the request was admitted, not refused.
		case http.StatusBadRequest, http.StatusNotFound:
			if rec.Code == http.StatusNotFound && !bytes.Contains(resp, []byte("unknown field")) {
				t.Fatalf("%s?%s: 404 %s", path, query, resp)
			}
			limit := uint64(wireAllocFactor*(len(query)+len(body)) + wireAllocSlack)
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("%s?%s: refusing a %d-byte request allocated %d bytes, limit %d", path, query, len(query)+len(body), got, limit)
			}
		default:
			t.Fatalf("%s?%s (body %q): %d %s", path, query, body, rec.Code, resp)
		}
	})
}

// checkEchoes asserts that a 200 response to path carries, for every number it
// echoes, exactly what strconv.ParseFloat reads from the request.
func checkEchoes(t *testing.T, path, query string, body, resp []byte) {
	t.Helper()
	params, _ := url.ParseQuery(query)
	var out struct {
		X, Y, Level *float64
		Result      struct {
			Lo, Hi *float64
			MaxErr *float64 `json:"max_err"`
		}
		Results []*struct{ Lo, Hi float64 }
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatalf("%s?%s: 200 with a body that does not decode: %v", path, query, err)
	}
	// want compares one echoed number with the parameter it came from.
	want := func(key string, got *float64) {
		t.Helper()
		v, err := strconv.ParseFloat(params.Get(key), 64)
		if err != nil || got == nil || *got != v {
			t.Fatalf("%s?%s: accepted %s=%q as %v, strconv reads %v (%v)", path, query, key, params.Get(key), got, v, err)
		}
	}
	switch path[strings.LastIndexByte(path, '/')+1:] {
	case "range":
		want("lo", out.Result.Lo)
		want("hi", out.Result.Hi)
	case "above":
		want("lo", out.Result.Lo)
	case "below":
		want("hi", out.Result.Hi)
	case "point":
		want("x", out.X)
		want("y", out.Y)
	case "contour":
		want("level", out.Level)
	case "aggregate":
		want("lo", out.Result.Lo)
		want("hi", out.Result.Hi)
		// Zero selects the default tolerance and +Inf echoes as null.
		if v, err := strconv.ParseFloat(params.Get("max_err"), 64); err == nil && v != 0 && !math.IsInf(v, 1) {
			want("max_err", out.Result.MaxErr)
		}
	case "batch":
		// Decoded as the server decodes it: the first JSON value in the body.
		var req struct{ Intervals [][2]json.Number }
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || len(req.Intervals) != len(out.Results) {
			t.Fatalf("batch %s: %d results for %d intervals (%v)", body, len(out.Results), len(req.Intervals), err)
		}
		for i, iv := range req.Intervals {
			lo, _ := strconv.ParseFloat(string(iv[0]), 64)
			hi, _ := strconv.ParseFloat(string(iv[1]), 64)
			// A member that failed — its deadline ran out — answers null.
			if r := out.Results[i]; r != nil && (r.Lo != lo || r.Hi != hi) {
				t.Fatalf("batch %s: member %d answered %+v for [%v, %v]", body, i, r, lo, hi)
			}
		}
	}
}
