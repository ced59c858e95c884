package serve

import (
	"fmt"
	"net/http"
	"testing"

	"fielddb"
)

// discardRW is a ResponseWriter that throws the body away — the encode path
// under test is the codec, not the recorder.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// allocFixture builds one server-sized result to encode repeatedly.
func allocFixture(t *testing.T) (*fielddb.Result, []*fielddb.Result, *fielddb.BatchStats) {
	t.Helper()
	_, _, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6
	res, err := db.ValueQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) < 16 {
		t.Fatalf("fixture too small: %d regions", len(res.Regions))
	}
	results, bst, err := db.ValueQueryBatchStats(t.Context(), []fielddb.Interval{
		{Lo: lo, Hi: hi},
		{Lo: vr.Lo + vr.Length()*0.1, Hi: vr.Lo + vr.Length()*0.2},
		{Lo: vr.Lo + vr.Length()*0.7, Hi: vr.Lo + vr.Length()*0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, results, &bst
}

// TestEncodeAllocs is the regression gate on the pooled encode path: each
// response writer must settle to a small constant number of allocations per
// request, independent of payload size. PR 8's encoder cost ~9 allocations
// for a plain range envelope and one per geometry ring (~3000 on the bench
// fixture); the pooled path must stay under the bounds below or the
// zero-alloc claim has regressed.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	res, results, bst := allocFixture(t)
	w := &discardRW{h: make(http.Header)}

	cases := []struct {
		name  string
		bound float64
		runs  int // 0 means the default 200; column-packing cases run fewer
		run   func()
	}{
		{"result", 3, 0, func() {
			q := lease(w)
			jsonCodec{&q.codec}.result("terrain", res, false)
			q.put()
		}},
		{"result+geometry", 8, 0, func() {
			q := lease(w)
			jsonCodec{&q.codec}.result("terrain", res, true)
			q.put()
		}},
		{"result-bin", 3, 0, func() {
			q := lease(w)
			binCodec{&q.codec}.result("terrain", res, false)
			q.put()
		}},
		{"result-bin+geometry", 8, 20, func() {
			q := lease(w)
			binCodec{&q.codec}.result("terrain", res, true)
			q.put()
		}},
		{"batch", 8, 0, func() {
			q := lease(w)
			jsonCodec{&q.codec}.batch("terrain", results, bst, nil, false)
			q.put()
		}},
		{"batch-bin+geometry", 12, 20, func() {
			q := lease(w)
			binCodec{&q.codec}.batch("terrain", results, bst, nil, true)
			q.put()
		}},
		{"error", 3, 0, func() {
			q := lease(w)
			jsonCodec{&q.codec}.fail(http.StatusBadRequest, "missing query parameter \"lo\"")
			q.put()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pool and the scratch buffers before measuring.
			for i := 0; i < 8; i++ {
				tc.run()
			}
			runs := tc.runs
			if runs == 0 {
				runs = 200
			}
			if got := testing.AllocsPerRun(runs, tc.run); got > tc.bound {
				t.Fatalf("%s: %.1f allocs/request, want <= %.0f", tc.name, got, tc.bound)
			}
		})
	}
}

// TestEncodeAllocsScaleFree pins the headline property: geometry allocations
// must not scale with ring count. The fixture result has dozens of rings and
// thousands of points; if the streamed path allocated per ring (as PR 8's
// [][][2]float64 view did), this blows the bound by orders of magnitude.
func TestEncodeAllocsScaleFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	res, _, _ := allocFixture(t)
	w := &discardRW{h: make(http.Header)}
	run := func() {
		q := lease(w)
		jsonCodec{&q.codec}.result("terrain", res, true)
		q.put()
	}
	for i := 0; i < 8; i++ {
		run()
	}
	got := testing.AllocsPerRun(100, run)
	if perRing := got / float64(len(res.Regions)); perRing > 0.5 {
		t.Fatalf("%.1f allocs for %d rings (%.2f per ring): geometry encoding is allocating per ring again",
			got, len(res.Regions), perRing)
	}
}

// BenchmarkEncodeResultEnvelope isolates the encode path the alloc gates
// cover (the handler benchmarks in alloc_bench_test.go measure end to end,
// which is engine-dominated).
func BenchmarkEncodeResultEnvelope(b *testing.B) {
	f, err := fielddb.TerrainDEM(64, 5)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	vr := db.ValueRange()
	res, err := db.ValueQuery(vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardRW{h: make(http.Header)}
	for _, geom := range []bool{false, true} {
		b.Run(fmt.Sprintf("geometry=%v", geom), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := lease(w)
				jsonCodec{&q.codec}.result("terrain", res, geom)
				q.put()
			}
		})
	}
}
