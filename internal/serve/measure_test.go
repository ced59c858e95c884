package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fielddb"
)

// encodeWith writes one response through the encoder of the given format
// (binary when bin is set) into a recording writer and returns its body.
func encodeWith(bin bool, write func(encoder)) []byte {
	rec := newRecordingWriter()
	q := lease(rec)
	var out encoder = jsonCodec{&q.codec}
	if bin {
		out = binCodec{&q.codec}
	}
	write(out)
	q.put()
	return rec.body.Bytes()
}

// serveRaw runs one request through srv's handler, in the JSON or binary
// format, and returns status and body.
func serveRaw(srv *Server, method, url, body string, bin bool) (int, []byte) {
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	if bin {
		req.Header.Set("Accept", WireMIME)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// resultSpy is a Querier wrapper that forwards the value queries — context
// included, as a tracing wrapper would — and keeps the Results it hands the
// server, so a test can see what the engine built for a response.
type resultSpy struct {
	fielddb.Querier
	got []*fielddb.Result
}

func (s *resultSpy) keep(res ...*fielddb.Result) { s.got = append(s.got, res...) }

func (s *resultSpy) ValueQueryContext(ctx context.Context, lo, hi float64) (*fielddb.Result, error) {
	res, err := s.Querier.ValueQueryContext(ctx, lo, hi)
	s.keep(res)
	return res, err
}

func (s *resultSpy) ValueAboveContext(ctx context.Context, lo float64) (*fielddb.Result, error) {
	res, err := s.Querier.ValueAboveContext(ctx, lo)
	s.keep(res)
	return res, err
}

func (s *resultSpy) ValueBelowContext(ctx context.Context, hi float64) (*fielddb.Result, error) {
	res, err := s.Querier.ValueBelowContext(ctx, hi)
	s.keep(res)
	return res, err
}

func (s *resultSpy) ValueQueryBatch(ctx context.Context, ivs []fielddb.Interval) ([]*fielddb.Result, error) {
	res, err := s.Querier.ValueQueryBatch(ctx, ivs)
	s.keep(res...)
	return res, err
}

// TestServeMeasureByteIdentity: a value response without geometry is asked for
// under core.WithMeasure — through a wrapping Querier too — so the
// engine hands back Results without Regions or Isolines; and its bytes are the
// encoding of the full Result all the same, in JSON and FWB1 alike: /range
// (band and zero-width), /above, /below and /batch against the facade's
// geometry answers to the same queries. With ?geometry=1 the geometry is
// built.
func TestServeMeasureByteIdentity(t *testing.T) {
	f, err := fielddb.TerrainDEM(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	spy := &resultSpy{Querier: db}
	srv := New(map[string]*Field{"terrain": {Querier: spy}}, Config{})
	ctx := context.Background()
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6
	mid := (lo + hi) / 2
	intervals := []fielddb.Interval{{Lo: lo, Hi: hi}, {Lo: mid, Hi: mid}, {Lo: vr.Lo, Hi: lo}}
	batchBody := fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g],[%g,%g]]}`, lo, hi, mid, mid, vr.Lo, lo)
	// served checks that the engine built geometry for the request just
	// answered exactly when it was asked to.
	served := func(label string, geometry bool) {
		t.Helper()
		if len(spy.got) == 0 {
			t.Fatalf("%s: the server asked the wrapper for nothing", label)
		}
		for _, res := range spy.got {
			if built := res.Regions != nil || res.Isolines != nil; built != geometry {
				t.Fatalf("%s: engine built geometry %v, want %v", label, built, geometry)
			}
		}
		spy.got = spy.got[:0]
	}
	for _, bin := range []bool{false, true} {
		for _, c := range []struct {
			path  string
			query func() (*fielddb.Result, error)
		}{
			{fmt.Sprintf("range?lo=%g&hi=%g", lo, hi), func() (*fielddb.Result, error) { return db.ValueQueryContext(ctx, lo, hi) }},
			{fmt.Sprintf("range?lo=%g&hi=%g", mid, mid), func() (*fielddb.Result, error) { return db.ValueQueryContext(ctx, mid, mid) }},
			{fmt.Sprintf("above?lo=%g", hi), func() (*fielddb.Result, error) { return db.ValueAboveContext(ctx, hi) }},
			{fmt.Sprintf("below?hi=%g", lo), func() (*fielddb.Result, error) { return db.ValueBelowContext(ctx, lo) }},
		} {
			label := fmt.Sprintf("%s bin=%v", c.path, bin)
			full, err := c.query()
			if err != nil {
				t.Fatal(err)
			}
			if full.RegionCount+full.IsolineCount == 0 {
				t.Fatalf("%s: empty answer; the case is vacuous", label)
			}
			want := encodeWith(bin, func(out encoder) { out.result("terrain", full, false) })
			st, got := serveRaw(srv, "GET", "/v1/fields/terrain/"+c.path, "", bin)
			if st != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: status %d, body\n%q\nwant the full result's\n%q", label, st, got, want)
			}
			served(label, false)
			serveRaw(srv, "GET", "/v1/fields/terrain/"+c.path+"&geometry=1", "", bin)
			served(label+" geometry=1", true)
		}

		full, err := db.ValueQueryBatch(ctx, intervals)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeWith(bin, func(out encoder) { out.batch("terrain", full, nil, nil, false) })
		st, got := serveRaw(srv, "POST", "/v1/fields/terrain/batch", batchBody, bin)
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("batch bin=%v: status %d, body\n%q\nwant the full results'\n%q", bin, st, got, want)
		}
		served(fmt.Sprintf("batch bin=%v", bin), false)
	}
}

// TestServePastRange: /above and /below with a bound past the field's value
// range answer 200 with an empty result, as the facade does, not a 400 for an
// inverted interval the client never sent.
func TestServePastRange(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	for _, path := range []string{
		fmt.Sprintf("above?lo=%g", vr.Hi+1),
		fmt.Sprintf("below?hi=%g", vr.Lo-1),
		fmt.Sprintf("above?lo=%g&geometry=1", vr.Hi+1),
		fmt.Sprintf("below?hi=%g&geometry=1", vr.Lo-1),
	} {
		for _, field := range []string{"terrain", "frozen"} {
			var body struct {
				Result struct {
					CellsMatched *int `json:"cells_matched"`
				} `json:"result"`
			}
			url := hs.URL + "/v1/fields/" + field + "/" + path
			if st := getJSON(t, url, &body); st != http.StatusOK || body.Result.CellsMatched == nil || *body.Result.CellsMatched != 0 {
				t.Fatalf("%s: status %d, result %+v; want 200 with cells_matched 0", url, st, body.Result)
			}
		}
	}
}
