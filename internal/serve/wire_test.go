package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"fielddb"
)

// recordingWriter is a minimal ResponseWriter capturing the response body,
// for driving the codec writers directly.
type recordingWriter struct {
	h    http.Header
	body bytes.Buffer
	code int
}

func newRecordingWriter() *recordingWriter             { return &recordingWriter{h: make(http.Header)} }
func (r *recordingWriter) Header() http.Header         { return r.h }
func (r *recordingWriter) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recordingWriter) WriteHeader(code int)        { r.code = code }

// getBin fetches url with the binary Accept header and returns the status,
// content type, and raw body.
func getBin(t testing.TB, url string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", WireMIME)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// postBin posts body to url with the binary Accept header.
func postBin(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", WireMIME)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// decodeFrame decodes one frame or fails the test.
func decodeFrame(t *testing.T, data []byte) any {
	t.Helper()
	v, err := DecodeFrame(data)
	if err != nil {
		t.Fatalf("DecodeFrame: %v (frame %d bytes)", err, len(data))
	}
	return v
}

// checkResult compares a decoded binary result against its JSON envelope
// sibling — every stat, the sim-clock I/O, and the geometry must agree
// exactly.
func checkResult(t *testing.T, label string, wr WireResult, jv WireResult) {
	t.Helper()
	if wr.Lo != jv.Lo || wr.Hi != jv.Hi {
		t.Fatalf("%s: interval (%g,%g) != (%g,%g)", label, wr.Lo, wr.Hi, jv.Lo, jv.Hi)
	}
	if wr.CandidateGroups != jv.CandidateGroups || wr.CellsFetched != jv.CellsFetched ||
		wr.CellsMatched != jv.CellsMatched || wr.Regions != jv.Regions || wr.Isolines != jv.Isolines {
		t.Fatalf("%s: counts %+v != %+v", label, wr, jv)
	}
	if wr.Area != jv.Area {
		t.Fatalf("%s: area %g != %g", label, wr.Area, jv.Area)
	}
	if wr.IO != (WireIO{
		Reads: jv.IO.Reads, SeqReads: jv.IO.SeqReads, RandReads: jv.IO.RandReads,
		CacheHits: jv.IO.CacheHits, SimElapsedNs: jv.IO.SimElapsedNs,
	}) {
		t.Fatalf("%s: io %+v != %+v", label, wr.IO, jv.IO)
	}
	checkGeometry(t, label, wr.Geometry, jv.Geometry)
}

func checkGeometry(t *testing.T, label string, bin, js [][][2]float64) {
	t.Helper()
	if len(bin) != len(js) {
		t.Fatalf("%s: %d rings != %d rings", label, len(bin), len(js))
	}
	for i := range bin {
		if len(bin[i]) != len(js[i]) {
			t.Fatalf("%s ring %d: %d pts != %d pts", label, i, len(bin[i]), len(js[i]))
		}
		for j := range bin[i] {
			if bin[i][j] != js[i][j] {
				t.Fatalf("%s ring %d pt %d: %v != %v", label, i, j, bin[i][j], js[i][j])
			}
		}
	}
}

// TestWireEquivalence drives every negotiable endpoint in both formats and
// checks the decoded values — stats, sim-clock I/O, geometry, field metadata
// — are identical. The engine's deterministic per-query I/O accounting makes
// the comparison exact across the two requests.
func TestWireEquivalence(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6

	t.Run("list", func(t *testing.T) {
		var jv struct {
			Fields []WireFieldInfo `json:"fields"`
		}
		if st := getJSON(t, hs.URL+"/v1/fields", &jv); st != 200 {
			t.Fatalf("json status %d", st)
		}
		st, ct, body := getBin(t, hs.URL+"/v1/fields")
		if st != 200 || ct != WireMIME {
			t.Fatalf("bin status %d ct %q", st, ct)
		}
		bf := decodeFrame(t, body).(*WireListFrame)
		if len(bf.Fields) != len(jv.Fields) {
			t.Fatalf("%d fields != %d", len(bf.Fields), len(jv.Fields))
		}
		for i, fi := range jv.Fields {
			want := WireFieldInfo{
				Name: fi.Name, Method: fi.Method, Cells: fi.Cells, CellPages: fi.CellPages,
				IndexPages: fi.IndexPages, SidecarPages: fi.SidecarPages, Groups: fi.Groups,
				TreeHeight: fi.TreeHeight, ValueLo: fi.ValueLo, ValueHi: fi.ValueHi, Writable: fi.Writable,
			}
			if bf.Fields[i] != want {
				t.Fatalf("field %d: %+v != %+v", i, bf.Fields[i], want)
			}
		}
	})

	t.Run("describe", func(t *testing.T) {
		var jv WireFieldInfo
		if st := getJSON(t, hs.URL+"/v1/fields/terrain", &jv); st != 200 {
			t.Fatalf("json status %d", st)
		}
		st, _, body := getBin(t, hs.URL+"/v1/fields/terrain")
		if st != 200 {
			t.Fatalf("bin status %d", st)
		}
		fi := decodeFrame(t, body).(*WireFieldInfo)
		if fi.Name != jv.Name || fi.Method != jv.Method || fi.Cells != jv.Cells ||
			fi.ValueLo != jv.ValueLo || fi.ValueHi != jv.ValueHi || fi.Writable != jv.Writable {
			t.Fatalf("describe: %+v != %+v", fi, jv)
		}
	})

	for _, geom := range []string{"", "&geometry=1"} {
		for _, ep := range []struct{ name, url string }{
			{"range", fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g", lo, hi)},
			{"above", fmt.Sprintf("/v1/fields/terrain/above?lo=%g", hi)},
			{"below", fmt.Sprintf("/v1/fields/terrain/below?hi=%g", lo)},
		} {
			t.Run(ep.name+geom, func(t *testing.T) {
				var jv struct {
					Field  string     `json:"field"`
					Result WireResult `json:"result"`
				}
				if st := getJSON(t, hs.URL+ep.url+geom, &jv); st != 200 {
					t.Fatalf("json status %d", st)
				}
				st, _, body := getBin(t, hs.URL+ep.url+geom)
				if st != 200 {
					t.Fatalf("bin status %d", st)
				}
				bf := decodeFrame(t, body).(*WireResultFrame)
				if bf.Field != jv.Field {
					t.Fatalf("field %q != %q", bf.Field, jv.Field)
				}
				checkResult(t, ep.name, bf.Result, jv.Result)
				if geom != "" && len(bf.Result.Geometry) == 0 {
					t.Fatal("geometry requested but empty")
				}
			})
		}
	}

	t.Run("point", func(t *testing.T) {
		url := "/v1/fields/terrain/point?x=10.5&y=20.25"
		var jv struct {
			Field string  `json:"field"`
			X, Y  float64 `json:"-"`
			Value float64 `json:"value"`
			RawX  float64 `json:"x"`
			RawY  float64 `json:"y"`
		}
		if st := getJSON(t, hs.URL+url, &jv); st != 200 {
			t.Fatalf("json status %d", st)
		}
		st, _, body := getBin(t, hs.URL+url)
		if st != 200 {
			t.Fatalf("bin status %d", st)
		}
		pf := decodeFrame(t, body).(*WirePointFrame)
		if pf.Field != jv.Field || pf.X != jv.RawX || pf.Y != jv.RawY || pf.Value != jv.Value {
			t.Fatalf("point: %+v != %+v", pf, jv)
		}
	})

	t.Run("contour", func(t *testing.T) {
		level := vr.Lo + vr.Length()*0.5
		url := fmt.Sprintf("/v1/fields/terrain/contour?level=%g&geometry=1", level)
		var jv struct {
			Field     string         `json:"field"`
			Level     float64        `json:"level"`
			Polylines int            `json:"polylines"`
			IO        WireIO         `json:"io"`
			Geometry  [][][2]float64 `json:"geometry"`
		}
		if st := getJSON(t, hs.URL+url, &jv); st != 200 {
			t.Fatalf("json status %d", st)
		}
		st, _, body := getBin(t, hs.URL+url)
		if st != 200 {
			t.Fatalf("bin status %d", st)
		}
		cf := decodeFrame(t, body).(*WireContourFrame)
		if cf.Field != jv.Field || cf.Level != jv.Level || cf.Polylines != jv.Polylines {
			t.Fatalf("contour: %+v != %+v", cf, jv)
		}
		if cf.IO != (WireIO{Reads: jv.IO.Reads, SeqReads: jv.IO.SeqReads, RandReads: jv.IO.RandReads,
			CacheHits: jv.IO.CacheHits, SimElapsedNs: jv.IO.SimElapsedNs}) {
			t.Fatalf("contour io: %+v != %+v", cf.IO, jv.IO)
		}
		checkGeometry(t, "contour", cf.Geometry, jv.Geometry)
	})

	t.Run("batch", func(t *testing.T) {
		reqBody := fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g],[%g,%g]]}`,
			lo, hi, lo, lo+vr.Length()*0.05, hi-vr.Length()*0.05, hi)
		for _, geom := range []string{"", "?geometry=1"} {
			var jv struct {
				Field   string          `json:"field"`
				Results []*WireResult   `json:"results"`
				Batch   *WireBatchStats `json:"batch"`
				Error   string          `json:"error"`
			}
			if st := postJSON(t, hs.URL+"/v1/fields/frozen/batch"+geom, reqBody, &jv); st != 200 {
				t.Fatalf("json status %d", st)
			}
			st, body := postBin(t, hs.URL+"/v1/fields/frozen/batch"+geom, reqBody)
			if st != 200 {
				t.Fatalf("bin status %d", st)
			}
			bf := decodeFrame(t, body).(*WireBatchFrame)
			if bf.Field != jv.Field || bf.Error != jv.Error {
				t.Fatalf("batch meta: %+v != %+v", bf, jv)
			}
			if (bf.Batch == nil) != (jv.Batch == nil) {
				t.Fatalf("batch stats presence: %v != %v", bf.Batch, jv.Batch)
			}
			if bf.Batch != nil && *bf.Batch != (WireBatchStats{
				Size: jv.Batch.Size, PhysicalReads: jv.Batch.PhysicalReads,
				PhysicalSimNs: jv.Batch.PhysicalSimNs, AttributedReads: jv.Batch.AttributedReads,
				PagesSaved: jv.Batch.PagesSaved,
			}) {
				t.Fatalf("batch stats: %+v != %+v", bf.Batch, jv.Batch)
			}
			if len(bf.Results) != len(jv.Results) {
				t.Fatalf("%d members != %d", len(bf.Results), len(jv.Results))
			}
			for i := range bf.Results {
				if (bf.Results[i] == nil) != (jv.Results[i] == nil) {
					t.Fatalf("member %d presence: bin %v json %v", i, bf.Results[i], jv.Results[i])
				}
				if bf.Results[i] != nil {
					checkResult(t, fmt.Sprintf("member %d", i), *bf.Results[i], *jv.Results[i])
				}
			}
		}
	})

	t.Run("and", func(t *testing.T) {
		reqBody := fmt.Sprintf(`{"conditions":[{"field":"terrain","lo":%g,"hi":%g},{"field":"frozen","lo":%g,"hi":%g}]}`,
			lo, hi, lo, vr.Hi)
		var jv struct {
			Regions  int            `json:"regions"`
			Area     float64        `json:"area"`
			PerField []WireResult   `json:"per_field"`
			Geometry [][][2]float64 `json:"geometry"`
		}
		if st := postJSON(t, hs.URL+"/v1/and?geometry=1", reqBody, &jv); st != 200 {
			t.Fatalf("json status %d", st)
		}
		st, body := postBin(t, hs.URL+"/v1/and?geometry=1", reqBody)
		if st != 200 {
			t.Fatalf("bin status %d", st)
		}
		af := decodeFrame(t, body).(*WireAndFrame)
		if af.Regions != jv.Regions || af.Area != jv.Area || len(af.PerField) != len(jv.PerField) {
			t.Fatalf("and: %+v != %+v", af, jv)
		}
		for i := range af.PerField {
			checkResult(t, fmt.Sprintf("and field %d", i), af.PerField[i], jv.PerField[i])
		}
		checkGeometry(t, "and", af.Geometry, jv.Geometry)
	})

	t.Run("errors", func(t *testing.T) {
		for _, tc := range []struct {
			url  string
			want int
		}{
			{"/v1/fields/nosuch/range?lo=1&hi=2", 404},
			{"/v1/fields/terrain/range?lo=abc&hi=2", 400},
			{"/v1/fields/terrain/range?lo=5&hi=2", 400}, // inverted interval
		} {
			var jv struct {
				Error struct {
					Status  int    `json:"status"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if st := getJSON(t, hs.URL+tc.url, &jv); st != tc.want {
				t.Fatalf("%s: json status %d, want %d", tc.url, st, tc.want)
			}
			st, ct, body := getBin(t, hs.URL+tc.url)
			if st != tc.want || ct != WireMIME {
				t.Fatalf("%s: bin status %d ct %q", tc.url, st, ct)
			}
			ef := decodeFrame(t, body).(*WireErrorFrame)
			if ef.Status != jv.Error.Status || ef.Message != jv.Error.Message {
				t.Fatalf("%s: %+v != %+v", tc.url, ef, jv.Error)
			}
		}
	})
}

// TestWireBatchPartialFailure exercises the partial-failure shape of both
// batch encoders directly — a nil member slot with an error message — since
// the facade's up-front validation makes it hard to trigger over HTTP.
func TestWireBatchPartialFailure(t *testing.T) {
	_, _, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	res, err := db.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6)
	if err != nil {
		t.Fatal(err)
	}
	results := []*fielddb.Result{res, nil, res}
	st := &fielddb.BatchStats{Size: 3, AttributedReads: 12, PagesSaved: 4}
	memberErr := fmt.Errorf("member 1 canceled")

	// JSON: the envelope must match buffered encoding/json of the views.
	rec := newRecordingWriter()
	q := lease(rec)
	jsonCodec{&q.codec}.batch("t", results, st, memberErr, true)
	q.put()
	v0, v2 := viewResult(res, true), viewResult(res, true)
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Field   string          `json:"field"`
		Results []*WireResult   `json:"results"`
		Batch   *WireBatchStats `json:"batch"`
		Error   string          `json:"error"`
	}{"t", []*WireResult{&v0, nil, &v2}, &WireBatchStats{Size: 3, AttributedReads: 12, PagesSaved: 4},
		memberErr.Error()}); err != nil {
		t.Fatal(err)
	}
	if rec.body.String() != sb.String() {
		t.Fatalf("partial batch JSON:\n got %q\nwant %q", rec.body.String(), sb.String())
	}

	// Binary: the frame must round-trip the nil slot, stats, and message.
	rec = newRecordingWriter()
	q = lease(rec)
	binCodec{&q.codec}.batch("t", results, st, memberErr, true)
	q.put()
	bf := decodeFrame(t, rec.body.Bytes()).(*WireBatchFrame)
	if bf.Error != memberErr.Error() || bf.Batch == nil || bf.Batch.Size != 3 ||
		bf.Batch.AttributedReads != 12 || bf.Batch.PagesSaved != 4 {
		t.Fatalf("partial batch frame meta: %+v", bf)
	}
	if len(bf.Results) != 3 || bf.Results[1] != nil || bf.Results[0] == nil || bf.Results[2] == nil {
		t.Fatalf("partial batch members: %+v", bf.Results)
	}
	checkResult(t, "member 0", *bf.Results[0], v0)
	checkResult(t, "member 2", *bf.Results[2], v2)
}

// TestWireUpdateEquivalence runs the same update against two identically
// seeded servers, one per format: state-changing responses must agree too.
func TestWireUpdateEquivalence(t *testing.T) {
	body := `{"updates":[{"sample":3,"value":900},{"sample":4,"value":901}]}`

	_, hsJSON, _ := testServer(t, Config{}, 0)
	var jv struct {
		Field          string `json:"field"`
		Epoch          uint64 `json:"epoch"`
		SamplesApplied int    `json:"samples_applied"`
		CellsTouched   int    `json:"cells_touched"`
		PagesWritten   int    `json:"pages_written"`
		Regrouped      bool   `json:"regrouped"`
	}
	if st := postJSON(t, hsJSON.URL+"/v1/fields/terrain/update", body, &jv); st != 200 {
		t.Fatalf("json status %d", st)
	}

	_, hsBin, _ := testServer(t, Config{}, 0)
	st, raw := postBin(t, hsBin.URL+"/v1/fields/terrain/update", body)
	if st != 200 {
		t.Fatalf("bin status %d", st)
	}
	uf := decodeFrame(t, raw).(*WireUpdateFrame)
	want := WireUpdateFrame{
		Field: jv.Field, Epoch: jv.Epoch,
		SamplesApplied: jv.SamplesApplied, CellsTouched: jv.CellsTouched,
		PagesWritten: jv.PagesWritten, Regrouped: jv.Regrouped,
	}
	if *uf != want {
		t.Fatalf("update: %+v != %+v", *uf, want)
	}
}

// TestWireDecodeTruncated: every proper prefix of a valid frame must decode
// to an error, never a panic or a silent success.
func TestWireDecodeTruncated(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6

	st, _, body := getBin(t, fmt.Sprintf("%s/v1/fields/terrain/range?lo=%g&hi=%g&geometry=1", hs.URL, lo, hi))
	if st != 200 {
		t.Fatalf("status %d", st)
	}
	if _, err := DecodeFrame(body); err != nil {
		t.Fatalf("full frame: %v", err)
	}
	// Every short prefix, then a stride sweep across the body: cheap enough
	// to run on every push while still crossing each section boundary.
	for i := 0; i < len(body); i++ {
		if i > 512 && i < len(body)-512 && i%17 != 0 {
			continue
		}
		if _, err := DecodeFrame(body[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(body))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeFrame(append(append([]byte(nil), body...), 0)); err == nil {
		t.Fatal("frame with trailing byte decoded")
	}
}

// TestStreamedGeometryByteIdentity: the hand-streamed JSON envelopes must be
// byte-identical to buffered encoding/json over the reference view structs —
// the proof that swapping the encoder is invisible on the wire.
func TestStreamedGeometryByteIdentity(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6

	marshal := func(v any) []byte {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return []byte(sb.String())
	}
	fetch := func(url string) []byte {
		resp, err := http.Get(hs.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		return body
	}

	t.Run("range", func(t *testing.T) {
		res, err := db.ValueQuery(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := marshal(struct {
			Field  string     `json:"field"`
			Result WireResult `json:"result"`
		}{"terrain", viewResult(res, true)})
		got := fetch(fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g&geometry=1", lo, hi))
		if string(got) != string(want) {
			t.Fatalf("streamed range differs from buffered reference:\n got %q\nwant %q", got, want)
		}
	})

	t.Run("contour", func(t *testing.T) {
		level := vr.Lo + vr.Length()*0.5
		cr, err := db.ContourMapContext(context.Background(), level)
		if err != nil {
			t.Fatal(err)
		}
		geom := make([][][2]float64, len(cr.Polylines))
		for i, pl := range cr.Polylines {
			line := make([][2]float64, len(pl))
			for j, p := range pl {
				line[j] = [2]float64{p.X, p.Y}
			}
			geom[i] = line
		}
		want := marshal(struct {
			Field     string         `json:"field"`
			Level     float64        `json:"level"`
			Polylines int            `json:"polylines"`
			IO        WireIO         `json:"io"`
			Geometry  [][][2]float64 `json:"geometry,omitempty"`
		}{"terrain", level, len(cr.Polylines), WireIO{
			Reads: cr.IO.Reads, SeqReads: cr.IO.SeqReads, RandReads: cr.IO.RandReads,
			CacheHits: cr.IO.CacheHits, SimElapsedNs: int64(cr.IO.SimElapsed),
		}, geom})
		got := fetch(fmt.Sprintf("/v1/fields/terrain/contour?level=%g&geometry=1", level))
		if string(got) != string(want) {
			t.Fatalf("streamed contour differs from buffered reference:\n got %q\nwant %q", got, want)
		}
	})

	t.Run("batch", func(t *testing.T) {
		iv2lo, iv2hi := vr.Lo+vr.Length()*0.1, vr.Lo+vr.Length()*0.2
		results, bst, err := db.ValueQueryBatchStats(context.Background(), []fielddb.Interval{
			{Lo: lo, Hi: hi}, {Lo: iv2lo, Hi: iv2hi},
		})
		if err != nil {
			t.Fatal(err)
		}
		views := make([]*WireResult, len(results))
		for i, res := range results {
			v := viewResult(res, true)
			views[i] = &v
		}
		want := marshal(struct {
			Field   string          `json:"field"`
			Results []*WireResult   `json:"results"`
			Batch   *WireBatchStats `json:"batch,omitempty"`
		}{"terrain", views, &WireBatchStats{
			Size: bst.Size, PhysicalReads: bst.Physical.Reads,
			PhysicalSimNs:   int64(bst.Physical.SimElapsed),
			AttributedReads: bst.AttributedReads, PagesSaved: bst.PagesSaved,
		}})
		resp, err := http.Post(
			hs.URL+"/v1/fields/terrain/batch?geometry=1", "application/json",
			strings.NewReader(fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g]]}`, lo, hi, iv2lo, iv2hi)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if string(got) != string(want) {
			t.Fatalf("streamed batch differs from buffered reference:\n got %q\nwant %q", got, want)
		}
	})
}

// TestAppendJSONFloat checks the float appender is byte-identical to
// encoding/json across the format's breakpoints and a random sweep.
func TestAppendJSONFloat(t *testing.T) {
	corpus := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3.0,
		1e-6, 9.999999999999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
		1e20, 1e21, 1.0000000000000001e21, math.MaxFloat64,
		-1e-9, -1e22, 3.141592653589793, 255.00000000000003, 1e6, 123456789.123456789,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // encoding/json rejects non-finite values
		}
		corpus = append(corpus, f)
	}
	for _, f := range corpus {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Fatalf("float %x: got %q want %q", math.Float64bits(f), got, want)
		}
	}
}

// TestAppendJSONString checks the string appender against encoding/json with
// HTML escaping off: control bytes, quotes, invalid UTF-8, and the JS line
// separators.
func TestAppendJSONString(t *testing.T) {
	corpus := []string{
		"", "plain", `with "quotes" and \backslashes\`,
		"newline\nreturn\rtab\t", "control\x00\x01\x1f", "del\x7f",
		"unicode: héllo wörld — ≤≥", "astral 𝄞 music",
		"invalid \xff\xfe utf8", "truncated \xe2\x82", "js separators    ",
		"high control ", "/html/<script>&amp;",
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		corpus = append(corpus, string(b))
	}
	for _, s := range corpus {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(sb.String(), "\n")
		if got := appendJSONString(nil, s); string(got) != want {
			t.Fatalf("string %q: got %q want %q", s, got, want)
		}
	}
}
