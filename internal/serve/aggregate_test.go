package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

// aggView mirrors the /aggregate JSON envelope. MaxErr is a pointer because a
// degraded answer encodes its infinite tolerance as null.
type aggView struct {
	Lo            float64  `json:"lo"`
	Hi            float64  `json:"hi"`
	MaxErr        *float64 `json:"max_err"`
	Count         float64  `json:"count"`
	CountBound    float64  `json:"count_bound"`
	Area          float64  `json:"area"`
	AreaBound     float64  `json:"area_bound"`
	Fraction      float64  `json:"fraction"`
	FractionBound float64  `json:"fraction_bound"`
	TotalCells    float64  `json:"total_cells"`
	TotalArea     float64  `json:"total_area"`
	Approx        bool     `json:"approx"`
	Fallback      bool     `json:"fallback"`
	Degraded      bool     `json:"degraded"`
	IO            WireIO   `json:"io"`
}

// TestServeAggregateGolden compares the /aggregate endpoint against the
// facade's own answer for the same query — the deterministic simulated I/O
// makes the comparison exact, including the page-read accounting.
func TestServeAggregateGolden(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()

	for _, tc := range []struct {
		name   string
		lo, hi float64
		maxErr float64 // 0 = omit the parameter
	}{
		{"mid default", vr.Lo + vr.Length()*0.4, vr.Lo + vr.Length()*0.6, 0},
		{"narrow loose", vr.Lo + vr.Length()*0.49, vr.Lo + vr.Length()*0.51, 0.1},
		{"wide", vr.Lo, vr.Hi, 0.05},
		{"tight tolerance falls back", vr.Lo + vr.Length()*0.3, vr.Lo + vr.Length()*0.7, 1e-12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := db.ApproxAggregateContext(context.Background(), tc.lo, tc.hi, tc.maxErr)
			if err != nil {
				t.Fatal(err)
			}
			url := fmt.Sprintf("%s/v1/fields/terrain/aggregate?lo=%g&hi=%g", hs.URL, tc.lo, tc.hi)
			if tc.maxErr != 0 {
				url += fmt.Sprintf("&max_err=%g", tc.maxErr)
			}
			var jv struct {
				Field  string  `json:"field"`
				Result aggView `json:"result"`
			}
			if st := getJSON(t, url, &jv); st != 200 {
				t.Fatalf("status %d", st)
			}
			if jv.Field != "terrain" {
				t.Fatalf("field %q", jv.Field)
			}
			r := jv.Result
			if r.MaxErr == nil || *r.MaxErr != want.MaxErr {
				t.Fatalf("max_err %v, want %g", r.MaxErr, want.MaxErr)
			}
			if r.Lo != want.Query.Lo || r.Hi != want.Query.Hi ||
				r.Count != want.Count || r.CountBound != want.CountBound ||
				r.Area != want.Area || r.AreaBound != want.AreaBound ||
				r.Fraction != want.Fraction || r.FractionBound != want.FractionBound ||
				r.TotalCells != want.TotalCells || r.TotalArea != want.TotalArea ||
				r.Approx != want.Approx || r.Fallback != want.Fallback {
				t.Fatalf("result %+v != facade %+v", r, want)
			}
			if r.Degraded {
				t.Fatal("admitted request marked degraded")
			}
			if r.IO != (WireIO{
				Reads: want.IO.Reads, SeqReads: want.IO.SeqReads, RandReads: want.IO.RandReads,
				CacheHits: want.IO.CacheHits, SimElapsedNs: int64(want.IO.SimElapsed),
			}) {
				t.Fatalf("io %+v != facade %+v", r.IO, want.IO)
			}
			if want.Approx && !want.Fallback && r.IO.Reads > 4 {
				t.Fatalf("approx answer cost %d physical reads, want <= 4", r.IO.Reads)
			}
		})
	}

	// The read-only stored index serves the endpoint too.
	t.Run("frozen", func(t *testing.T) {
		lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6
		var jv struct {
			Result aggView `json:"result"`
		}
		url := fmt.Sprintf("%s/v1/fields/frozen/aggregate?lo=%g&hi=%g&max_err=0.1", hs.URL, lo, hi)
		if st := getJSON(t, url, &jv); st != 200 {
			t.Fatalf("status %d", st)
		}
		r := jv.Result
		if r.TotalCells == 0 || r.Count < 0 || r.Count > r.TotalCells {
			t.Fatalf("implausible frozen aggregate %+v", r)
		}
		if r.Approx == r.Fallback {
			t.Fatalf("exactly one of approx/fallback must be set: %+v", r)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, tc := range []struct {
			url  string
			want int
		}{
			{"/v1/fields/nosuch/aggregate?lo=1&hi=2", 404},
			{"/v1/fields/terrain/aggregate?hi=2", 400},                    // missing lo
			{"/v1/fields/terrain/aggregate?lo=1", 400},                    // missing hi
			{"/v1/fields/terrain/aggregate?lo=5&hi=2", 400},               // inverted
			{"/v1/fields/terrain/aggregate?lo=1&hi=2&max_err=abc", 400},   // unparsable
			{"/v1/fields/terrain/aggregate?lo=1&hi=2&max_err=NaN", 400},   // ErrBadTolerance
			{"/v1/fields/terrain/aggregate?lo=1&hi=2&max_err=-0.5", 400},  // ErrBadTolerance
			{"/v1/fields/terrain/aggregate?lo=Inf&hi=2&max_err=0.1", 400}, // non-finite bound
		} {
			var envelope struct {
				Error struct {
					Status  int    `json:"status"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if st := getJSON(t, hs.URL+tc.url, &envelope); st != tc.want {
				t.Fatalf("%s: status %d, want %d", tc.url, st, tc.want)
			}
			if envelope.Error.Status != tc.want || envelope.Error.Message == "" {
				t.Fatalf("%s: envelope %+v", tc.url, envelope)
			}
		}
	})
}

// TestWireAggregateEquivalence drives /aggregate in both formats and checks
// the decoded kind-10 frame is value-identical to the JSON envelope; the
// degraded shape — where JSON null stands in for the binary +Inf tolerance —
// is exercised through the codec writers directly.
func TestWireAggregateEquivalence(t *testing.T) {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6

	url := fmt.Sprintf("%s/v1/fields/terrain/aggregate?lo=%g&hi=%g&max_err=0.1", hs.URL, lo, hi)
	var jv struct {
		Field  string  `json:"field"`
		Result aggView `json:"result"`
	}
	if st := getJSON(t, url, &jv); st != 200 {
		t.Fatalf("json status %d", st)
	}
	st, ct, body := getBin(t, url)
	if st != 200 || ct != WireMIME {
		t.Fatalf("bin status %d ct %q", st, ct)
	}
	af := decodeFrame(t, body).(*WireAggregateFrame)
	r := jv.Result
	if af.Field != jv.Field || af.Lo != r.Lo || af.Hi != r.Hi ||
		r.MaxErr == nil || af.MaxErr != *r.MaxErr ||
		af.Count != r.Count || af.CountBound != r.CountBound ||
		af.Area != r.Area || af.AreaBound != r.AreaBound ||
		af.Fraction != r.Fraction || af.FractionBound != r.FractionBound ||
		af.TotalCells != r.TotalCells || af.TotalArea != r.TotalArea ||
		af.Approx != r.Approx || af.Fallback != r.Fallback || af.Degraded != r.Degraded {
		t.Fatalf("aggregate frame %+v != json %+v", af, r)
	}
	if af.IO != (WireIO{
		Reads: r.IO.Reads, SeqReads: r.IO.SeqReads, RandReads: r.IO.RandReads,
		CacheHits: r.IO.CacheHits, SimElapsedNs: r.IO.SimElapsedNs,
	}) {
		t.Fatalf("aggregate io %+v != %+v", af.IO, r.IO)
	}

	// Degraded shape: an infinite resolved tolerance rides the f64 natively in
	// the frame and encodes as null in JSON.
	res, err := db.ApproxAggregateContext(context.Background(), lo, hi, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.MaxErr, 1) {
		t.Fatalf("resolved tolerance %g, want +Inf", res.MaxErr)
	}

	rec := newRecordingWriter()
	q := lease(rec)
	jsonCodec{&q.codec}.aggregate("terrain", res, true)
	q.put()
	var dv struct {
		Result aggView `json:"result"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &dv); err != nil {
		t.Fatalf("degraded envelope: %v in %q", err, rec.body.String())
	}
	if dv.Result.MaxErr != nil {
		t.Fatalf("degraded max_err = %v, want null", *dv.Result.MaxErr)
	}
	if !dv.Result.Degraded {
		t.Fatal("degraded envelope not marked degraded")
	}

	rec = newRecordingWriter()
	q = lease(rec)
	binCodec{&q.codec}.aggregate("terrain", res, true)
	q.put()
	df := decodeFrame(t, rec.body.Bytes()).(*WireAggregateFrame)
	if !math.IsInf(df.MaxErr, 1) || !df.Degraded {
		t.Fatalf("degraded frame max_err %g degraded %t, want +Inf true", df.MaxErr, df.Degraded)
	}
	if df.Count != dv.Result.Count || df.Fraction != dv.Result.Fraction ||
		df.Approx != dv.Result.Approx || df.Fallback != dv.Result.Fallback {
		t.Fatalf("degraded frame %+v != envelope %+v", df, dv.Result)
	}
}

// TestServeDegradeToApprox is the serving-tier promise of the approximate
// tier under -race: with DegradeToApprox set, a field whose budget and the
// whole overflow pool are saturated still answers aggregate queries — 200,
// marked degraded, tolerance null — while exact traffic keeps shedding 429.
// The admission accounting must split the two outcomes exactly.
func TestServeDegradeToApprox(t *testing.T) {
	srv, hs, sq := slowServer(t, Config{
		MaxInFlight: 8, FieldBudget: 2, Overflow: 2,
		DegradeToApprox: true, RetryAfter: time.Second,
	})
	rangeURL := hs.URL + "/v1/fields/terrain/range?lo=1&hi=2"
	aggURL := hs.URL + "/v1/fields/terrain/aggregate?lo=1&hi=2"

	// Saturate: 2 budget + 2 overflow tokens block inside the slow querier.
	statuses := make(chan int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(rangeURL)
			if err != nil {
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for i := 0; i < 4; i++ {
		<-sq.entered
	}

	// Exact traffic past the budget still sheds.
	const sheds = 3
	for i := 0; i < sheds; i++ {
		resp, err := http.Get(rangeURL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("exact request under saturation answered %d, want 429", resp.StatusCode)
		}
	}

	// Aggregates keep answering, token-free, marked degraded with a null
	// (infinite) tolerance. Concurrent to stress the accounting under -race.
	const degrades = 4
	var aggWG sync.WaitGroup
	aggErrs := make(chan string, degrades)
	for i := 0; i < degrades; i++ {
		aggWG.Add(1)
		go func() {
			defer aggWG.Done()
			var jv struct {
				Result aggView `json:"result"`
			}
			if st := getJSON(t, aggURL, &jv); st != 200 {
				aggErrs <- fmt.Sprintf("status %d", st)
				return
			}
			switch {
			case !jv.Result.Degraded:
				aggErrs <- "not marked degraded"
			case jv.Result.MaxErr != nil:
				aggErrs <- fmt.Sprintf("max_err %g, want null", *jv.Result.MaxErr)
			case !jv.Result.Approx && !jv.Result.Fallback:
				aggErrs <- "neither approx nor fallback"
			}
		}()
	}
	aggWG.Wait()
	close(aggErrs)
	for msg := range aggErrs {
		t.Fatalf("degraded aggregate: %s", msg)
	}

	// Release the blocked exact requests; they complete normally.
	close(sq.release)
	for i := 0; i < 4; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("admitted request answered %d", st)
		}
	}
	wg.Wait()

	// Shed counts only the true 429s; Degraded counts the approximate answers.
	s := srv.Admission()
	if len(s.Fields) != 1 {
		t.Fatalf("fields = %+v", s.Fields)
	}
	f := s.Fields[0]
	if f.Shed != sheds || f.Degraded != degrades {
		t.Fatalf("accounting = %+v, want shed %d degraded %d", f, sheds, degrades)
	}
	if f.BudgetInUse != 0 || s.OverflowInUse != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}

	// With the admission pressure gone, the same aggregate is a normal
	// admitted answer again: finite tolerance, not degraded.
	var jv struct {
		Result aggView `json:"result"`
	}
	if st := getJSON(t, aggURL, &jv); st != 200 {
		t.Fatalf("post-release aggregate status %d", st)
	}
	if jv.Result.Degraded || jv.Result.MaxErr == nil {
		t.Fatalf("post-release aggregate still degraded: %+v", jv.Result)
	}
}
