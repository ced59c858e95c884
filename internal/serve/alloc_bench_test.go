package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"fielddb"
)

// BenchmarkServeRange measures end-to-end handler allocations on the range
// endpoint (no network, recorder reused via ServeHTTP on the mux).
func BenchmarkServeRange(b *testing.B) {
	f, err := fielddb.TerrainDEM(64, 5)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}}, Config{})
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g", lo, hi), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkServeRangeGeometry is the same drive with geometry payloads on.
func BenchmarkServeRangeGeometry(b *testing.B) {
	f, err := fielddb.TerrainDEM(64, 5)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}}, Config{})
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g&geometry=1", lo, hi), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
