package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"fielddb"
	"fielddb/internal/serve"
)

// serveTerrain serves a window-armed live I-Hilbert database over a
// deterministic side×side terrain as "terrain" on a loopback listener, and
// stops it without dropping a response (drain, then close).
func serveTerrain(t *testing.T, side int, cfg serve.Config) (string, *fielddb.DB) {
	t.Helper()
	f, err := fielddb.TerrainDEM(side, 5)
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
	srv := serve.New(map[string]*serve.Field{"terrain": {Querier: db, DB: db}}, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		hs.Close()
		db.Close()
	})
	return hs.URL, db
}

// TestServeSmoke is an end-to-end drive of the served stack with the
// deterministic load generator, cheap enough for every CI run.
func TestServeSmoke(t *testing.T) {
	base, _ := serveTerrain(t, 32, serve.Config{MaxInFlight: 128})
	rep, err := RunLoad(LoadOptions{
		BaseURL:     base,
		Field:       "terrain",
		Connections: 8,
		Requests:    128,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("load drive errors: %+v", rep.StatusCounts)
	}
	if rep.Requests != 128 || rep.QPS <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible report: %v", rep)
	}
}

// TestServeBenchSmoke is the serving tier's gate in `make race`: a short
// 256-connection wall-clock drive through a window-armed server that fails
// on any dropped response or on zero coalescing. Both wire formats drive the
// same server; the binary drive validates its first frame per worker via
// serve.DecodeFrame.
func TestServeBenchSmoke(t *testing.T) {
	base, db := serveTerrain(t, 64, serve.Config{
		MaxInFlight:    1024,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	})
	for _, wire := range []string{WireJSON, WireBin} {
		rep, err := RunLoad(LoadOptions{
			BaseURL:     base,
			Field:       "terrain",
			Connections: 256,
			Requests:    512,
			Seed:        4217,
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
