package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/workload"
)

// clientsReport is the machine-readable shape of a -clients run.
type clientsReport struct {
	Side        int     `json:"side"`
	Clients     int     `json:"clients"`
	Queries     int     `json:"queries"`
	WindowMS    float64 `json:"batch_window_ms"`
	WallSeconds float64 `json:"wall_seconds"`
	QPS         float64 `json:"queries_per_second"`
	P50         string  `json:"latency_p50"`
	P95         string  `json:"latency_p95"`
	Batches     int64   `json:"batches"`
	BatchSize   float64 `json:"mean_batch_size"`
	Physical    int64   `json:"batch_physical_pages"`
	PagesSaved  int64   `json:"coalesced_pages_saved"`
	FreeSlot    int64   `json:"groups_free_slot"`
	Handover    int64   `json:"groups_handover"`
	Expired     int64   `json:"groups_expired"`
	MeanWaitMS  float64 `json:"mean_wait_ms"`
	MaxWaitMS   float64 `json:"max_wait_ms"`
}

// runClients (fieldbench -clients N) drives a concurrent value-range load:
// N client goroutines pull queries round-robin from the deterministic
// 64-query rotation against one shared database whose admission window
// (-batch-window) runs an arrival at once while a core is free and groups the
// ones that find every core busy into shared scans. It reports wall-clock
// throughput, the engine's own latency quantiles, the batch counters, and the
// queue the window saw — mean group size, what released the groups, mean and
// longest wait over all queries — so the crossover is read off one table: at
// few clients the groups are free-slot groups of one and the wait is zero;
// raise -clients past the core count and group size, coalesced pages and the
// wait climb together, the wait bounded by the window (plus, with every core
// busy, however long the scheduler takes to run the woken leader).
func runClients(side, clients, queries int, window time.Duration, asJSON bool) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dem, err := fielddb.TerrainDEM(side, 4217)
	if err != nil {
		fail(err)
	}
	db, err := fielddb.Open(dem, fielddb.Options{Method: fielddb.LinearScan, BatchWindow: window})
	if err != nil {
		fail(err)
	}
	defer db.Close()

	rotation := workload.Queries(dem.ValueRange(), 0.05, 64, 4217)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(queries) {
					return
				}
				q := rotation[i%int64(len(rotation))]
				if _, err := db.ValueQuery(q.Lo, q.Hi); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fail(err)
		}
	}
	wall := time.Since(start)

	m := db.Metrics().Engine
	rep := clientsReport{
		Side:        side,
		Clients:     clients,
		Queries:     queries,
		WindowMS:    float64(window) / float64(time.Millisecond),
		WallSeconds: wall.Seconds(),
		QPS:         float64(queries) / wall.Seconds(),
		P50:         m.LatencyP50.String(),
		P95:         m.LatencyP95.String(),
		Batches:     m.Batches,
		Physical:    m.BatchPhysicalPages,
		PagesSaved:  m.CoalescedPagesSaved,
		FreeSlot:    m.GroupsFreeSlot,
		Handover:    m.GroupsHandover,
		Expired:     m.GroupsExpired,
		MaxWaitMS:   float64(m.WindowWaitMax) / float64(time.Millisecond),
	}
	if m.Batches > 0 {
		rep.BatchSize = float64(m.BatchQueries) / float64(m.Batches)
		// Free-slot queries waited nothing: the mean is over every query.
		rep.MeanWaitMS = float64(m.WindowWaitSum) / float64(time.Millisecond) / float64(m.BatchQueries)
	}
	if asJSON {
		b, err := bench.MarshalIndent(rep)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	fmt.Printf("concurrent load: %d clients, %d queries on %d×%d terrain (%s), window %v\n",
		clients, queries, side, side, db.Method(), window)
	fmt.Printf("  wall time          %v\n", wall.Round(time.Millisecond))
	fmt.Printf("  throughput         %.1f queries/sec\n", rep.QPS)
	fmt.Printf("  latency p50 / p95  %v / %v\n", m.LatencyP50, m.LatencyP95)
	if m.Batches > 0 {
		fmt.Printf("  groups             %d (mean size %.2f): %d on a free slot, %d on a handed-over slot, %d at window expiry\n",
			m.Batches, rep.BatchSize, m.GroupsFreeSlot, m.GroupsHandover, m.GroupsExpired)
		fmt.Printf("  window wait        mean %.3f ms, max %.3f ms\n", rep.MeanWaitMS, rep.MaxWaitMS)
		fmt.Printf("  physical pages     %d (coalescing saved %d)\n",
			m.BatchPhysicalPages, m.CoalescedPagesSaved)
	} else {
		fmt.Printf("  groups             0 (window off)\n")
	}
}
