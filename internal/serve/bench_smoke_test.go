package serve

import (
	"testing"
	"time"

	"fielddb"
	"fielddb/internal/bench"
)

// TestServeBenchSmoke is the serving tier's gate in `make race`: a short
// 256-connection wall-clock drive through a window-armed server that fails
// on any dropped response or on zero coalescing — the two serving-tier
// promises the full ServeLoad measurement also asserts, checked here in
// seconds instead of minutes. Both wire formats drive the same server; the
// binary drive validates its first frame per worker via DecodeFrame.
func TestServeBenchSmoke(t *testing.T) {
	f, err := bench.FixtureTerrain(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{
		Method:      fielddb.IHilbert,
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}}, Config{
		MaxInFlight:    1024,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	})
	base, stop, err := startLocalServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	for _, wire := range []string{WireJSON, WireBin} {
		rep, err := RunLoad(LoadOptions{
			BaseURL:     base,
			Field:       "terrain",
			Connections: 256,
			Requests:    512,
			Seed:        bench.FixtureSeed,
			Wire:        wire,
			Transports:  2,
		})
		if err != nil {
			t.Fatalf("%s drive: %v", wire, err)
		}
		if rep.Errors > 0 {
			t.Fatalf("%s drive dropped responses: %d of %d failed (statuses %v)",
				wire, rep.Errors, rep.Requests, rep.StatusCounts)
		}
		if rep.QPS <= 0 {
			t.Fatalf("%s drive reports no throughput: %+v", wire, rep)
		}
	}
	if saved := db.QueryMetrics().CoalescedPagesSaved; saved == 0 {
		t.Fatal("256-connection drive coalesced nothing (CoalescedPagesSaved == 0)")
	}
}
