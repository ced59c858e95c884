package serve

// The load-generation half of the serving tier: a deterministic HTTP query
// driver (RunLoad, the engine of cmd/fieldload) and the bench-pipeline entry
// (ServeLoadMeasure) that folds end-to-end serving costs into the
// BENCH_BASELINE.json regression gate as the Serve/… and ServeLoad/… rows.
//
// Two kinds of rows come out, matching the two accounting planes the rest of
// the pipeline already distinguishes. The Serve/... rows are gated: explicit
// /batch requests of ConcurrentClients intervals execute as one shared scan
// each, so their physical page and simulated-disk costs are exactly
// reproducible, wall clock be damned. The ServeLoad/... rows are ungated:
// wall-clock throughput measurements of concurrent connections whose queries
// coalesce through the admission window — real QPS and latency quantiles,
// which vary by host and therefore never gate.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fielddb"
	"fielddb/internal/bench"
)

// Wire format names accepted by LoadOptions.Wire and the -wire flags.
const (
	WireJSON = "json"
	WireBin  = "bin"
)

// LoadOptions configures one RunLoad drive.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Field is the field name every query targets.
	Field string
	// Connections is the number of concurrent client connections (default
	// 16).
	Connections int
	// Requests is the total request count across connections (default 512).
	Requests int
	// Seed makes the request sequence reproducible (default 1).
	Seed int64
	// Intervals bounds the distinct query intervals the zipf mix draws from
	// (default 32): a small pool models hot queries and gives the admission
	// window overlapping work to coalesce.
	Intervals int
	// PointEvery mixes one point query per this many requests (0 means the
	// default 8; negative disables the point mix).
	PointEvery int
	// AggregateEvery mixes one approximate aggregate query per this many
	// requests, drawn from the same zipf interval pool as the range mix
	// (0 disables — aggregates join the mix only when asked, so drives
	// predating the endpoint stay identical).
	AggregateEvery int
	// Wire selects the response encoding: WireJSON (the default) keeps the
	// server's JSON envelopes, WireBin negotiates the compact binary frame
	// format via Accept: application/x-fielddb-bin. The first binary
	// response each worker receives is decoded with DecodeFrame as a sanity
	// check; subsequent bodies are drained without decoding so the client
	// does not bill its own parse cost to the server's throughput.
	Wire string
	// Geometry asks the value-range queries in the mix to return region
	// geometry (?geometry=1) — the payloads where serialization dominates
	// and the two wire formats separate.
	Geometry bool
	// Transports shards the connection pool across this many independent
	// http.Transports (default 1). At thousands of connections a single
	// transport serializes all dialing and idle-pool bookkeeping behind one
	// mutex; sharding spreads that contention.
	Transports int
}

// LoadReport is the outcome of one RunLoad drive.
type LoadReport struct {
	Requests int           // requests issued
	Errors   int           // non-2xx responses and transport failures
	Elapsed  time.Duration // wall time of the whole drive
	QPS      float64       // Requests / Elapsed
	P50      time.Duration // per-request latency quantiles
	P95      time.Duration
	P99      time.Duration
	// StatusCounts maps HTTP status to response count (0 for transport
	// errors).
	StatusCounts map[int]int
}

// String renders the report as the one-line summary cmd/fieldload prints.
func (r *LoadReport) String() string {
	return fmt.Sprintf("requests=%d errors=%d elapsed=%v qps=%.1f p50=%v p95=%v p99=%v",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.QPS,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
}

// buildRequests pre-generates the whole request sequence from the seed, so
// the drive issues an identical mix regardless of connection scheduling, and
// pre-parses every URL into an *http.Request up front — request construction
// (URL parsing, header maps) stays out of the timed loop. Each request is
// issued exactly once by exactly one worker, so sharing the pre-built values
// is race-free. The value-range mix is zipf over a small interval pool
// spanning the selectivity bands of the bench suite; every PointEvery-th
// request is a point query at a deterministic position.
func buildRequests(opts LoadOptions, vr fielddb.Interval) ([]*http.Request, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(opts.Intervals-1))
	pool := make([]fielddb.Interval, opts.Intervals)
	sels := bench.Selectivities
	for i := range pool {
		sel := sels[i%len(sels)]
		width := sel * vr.Length()
		lo := vr.Lo + rng.Float64()*(vr.Length()-width)
		pool[i] = fielddb.Interval{Lo: lo, Hi: lo + width}
	}
	geom := ""
	if opts.Geometry {
		geom = "&geometry=1"
	}
	reqs := make([]*http.Request, opts.Requests)
	for i := range reqs {
		var url string
		switch {
		case opts.PointEvery > 0 && i%opts.PointEvery == opts.PointEvery-1:
			// The point mix assumes the cell-coordinate domain of the
			// shipped fields (the fixture terrain spans [0, side]²); drive
			// fields with another extent with PointEvery < 0.
			x := 1 + rng.Float64()*99
			y := 1 + rng.Float64()*99
			url = fmt.Sprintf("%s/v1/fields/%s/point?x=%g&y=%g",
				opts.BaseURL, opts.Field, x, y)
		case opts.AggregateEvery > 0 && i%opts.AggregateEvery == opts.AggregateEvery-1:
			iv := pool[zipf.Uint64()]
			url = fmt.Sprintf("%s/v1/fields/%s/aggregate?lo=%g&hi=%g",
				opts.BaseURL, opts.Field, iv.Lo, iv.Hi)
		default:
			iv := pool[zipf.Uint64()]
			url = fmt.Sprintf("%s/v1/fields/%s/range?lo=%g&hi=%g%s",
				opts.BaseURL, opts.Field, iv.Lo, iv.Hi, geom)
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if opts.Wire == WireBin {
			req.Header.Set("Accept", WireMIME)
		}
		reqs[i] = req
	}
	return reqs, nil
}

// loadShard is one worker's private measurement state. Each shard is heap-
// allocated on its own so concurrent appends never false-share a cache line
// with a neighbouring worker's slice header — at 2048 workers a shared
// per-request array indexed by request number keeps every worker writing
// into the same few cache lines.
type loadShard struct {
	lat      []time.Duration
	statuses map[int]int
}

// RunLoad drives the server at BaseURL with Connections concurrent clients
// issuing a deterministic zipf query mix, and reports wall-clock QPS and
// latency quantiles. The request sequence is fixed by Seed; only the timing
// varies between runs.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.BaseURL == "" || opts.Field == "" {
		return nil, fmt.Errorf("serve: RunLoad needs BaseURL and Field")
	}
	switch opts.Wire {
	case "", WireJSON, WireBin:
	default:
		return nil, fmt.Errorf("serve: unknown wire format %q (want %q or %q)", opts.Wire, WireJSON, WireBin)
	}
	if opts.Connections <= 0 {
		opts.Connections = 16
	}
	if opts.Requests <= 0 {
		opts.Requests = 512
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Intervals <= 0 {
		opts.Intervals = 32
	}
	if opts.PointEvery == 0 {
		opts.PointEvery = 8
	}
	if opts.Transports <= 0 {
		opts.Transports = 1
	}
	if opts.Transports > opts.Connections {
		opts.Transports = opts.Connections
	}

	// The interval pool spans the field's value range, read once up front.
	vr, err := fetchValueRange(opts.BaseURL, opts.Field)
	if err != nil {
		return nil, err
	}
	reqs, err := buildRequests(opts, vr)
	if err != nil {
		return nil, err
	}

	// One client per transport shard, each sized to keep every connection it
	// owns alive for the whole drive: MaxIdleConnsPerHost alone is not
	// enough, because the transport's *global* idle pool defaults to 100 —
	// beyond it, connections are closed on return and redialed, which at
	// thousands of connections turns the drive into a TCP churn benchmark.
	perShard := (opts.Connections + opts.Transports - 1) / opts.Transports
	clients := make([]*http.Client, opts.Transports)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        perShard,
			MaxIdleConnsPerHost: perShard,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()

	shards := make([]*loadShard, opts.Connections)
	perWorker := opts.Requests/opts.Connections + 2
	for i := range shards {
		shards[i] = &loadShard{
			lat:      make([]time.Duration, 0, perWorker),
			statuses: make(map[int]int, 4),
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Connections; c++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := shards[w]
			client := clients[w%len(clients)]
			checked := opts.Wire != WireBin // binary mode decodes one response per worker
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				resp, err := client.Do(reqs[i])
				if err != nil {
					shard.lat = append(shard.lat, time.Since(t0))
					shard.statuses[0]++
					continue
				}
				if !checked && resp.StatusCode == http.StatusOK {
					buf.Reset()
					_, err := buf.ReadFrom(resp.Body)
					resp.Body.Close()
					shard.lat = append(shard.lat, time.Since(t0))
					if err == nil {
						_, err = DecodeFrame(buf.Bytes())
					}
					if err != nil {
						shard.statuses[0]++
						continue
					}
					checked = true
					shard.statuses[resp.StatusCode]++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				shard.lat = append(shard.lat, time.Since(t0))
				shard.statuses[resp.StatusCode]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Requests:     len(reqs),
		Elapsed:      elapsed,
		StatusCounts: map[int]int{},
	}
	sorted := make([]time.Duration, 0, len(reqs))
	for _, shard := range shards {
		sorted = append(sorted, shard.lat...)
		for st, n := range shard.statuses {
			rep.StatusCounts[st] += n
			if st < 200 || st > 299 {
				rep.Errors += n
			}
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rep.P50 = quantileDuration(sorted, 0.50)
	rep.P95 = quantileDuration(sorted, 0.95)
	rep.P99 = quantileDuration(sorted, 0.99)
	return rep, nil
}

// quantileDuration reads the q-quantile of an ascending latency slice.
func quantileDuration(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// fetchValueRange reads the field's value-domain coverage off the describe
// endpoint (the server surfaces Querier.ValueRange as value_lo/value_hi) —
// the span the driver cuts its query intervals from.
func fetchValueRange(baseURL, field string) (fielddb.Interval, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/fields/%s", baseURL, field))
	if err != nil {
		return fielddb.Interval{}, fmt.Errorf("serve: probing %s: %w", field, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fielddb.Interval{}, fmt.Errorf("serve: probing %s: %s: %s", field, resp.Status, bytes.TrimSpace(body))
	}
	var info struct {
		ValueLo *float64 `json:"value_lo"`
		ValueHi *float64 `json:"value_hi"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fielddb.Interval{}, fmt.Errorf("serve: probing %s: %w", field, err)
	}
	if info.ValueLo == nil || info.ValueHi == nil || *info.ValueHi < *info.ValueLo {
		return fielddb.Interval{}, fmt.Errorf("serve: field %s reports no value range", field)
	}
	return fielddb.Interval{Lo: *info.ValueLo, Hi: *info.ValueHi}, nil
}

// startLocalServer opens srv on a loopback listener and returns its base URL
// and a zero-drop stop function (drain, then close).
func startLocalServer(s *Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		s.Drain()
		_ = hs.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// ServeClients is the member count of the gated /batch rows — the same 16
// coalescing clients the Concurrent suite models.
const ServeClients = bench.ConcurrentClients

// WireLoadConns are the connection counts of the ungated wire-format scaling
// rows (ServeLoad/<wire>/conns=N): the same drive at increasing concurrency,
// once per encoding, with geometry on so serialization dominates.
var WireLoadConns = []int{256, 1024, 2048}

// ServeLoadMeasure runs the serving-tier benchmark suite on the bench
// fixture terrain and returns its rows for the baseline.
//
// Gated rows (Serve/<method>/sel=S/clients=16): the 64-query rotation of
// each (method, selectivity) cell crosses HTTP as explicit /batch requests
// of ServeClients intervals; pages_op and simns_op are the batch's physical
// (deduplicated) costs read back from the response's batch stats, exactly
// reproducible run to run, and qps_sim is throughput on the simulated clock.
//
// The ungated rows come in three groups. ServeLoad/mixed/conns=16 drives a
// BatchWindow-armed server with 16 concurrent connections over a
// deterministic zipf mix and records wall-clock QPS and latency quantiles
// (fields the regression gate ignores); the run fails if the value queries
// did not pass the admission window — BatchQueries must move — or if the
// drain dropped a response. (Whether 16 connections coalesce depends on the
// core count: the window shares a scan only among queries that found every
// core busy. TestServeBenchSmoke asserts coalescing at 256 connections, where
// a backlog is certain.) ServeLoad/<wire>/conns=N scales the same mix to
// WireLoadConns connections with geometry payloads, once per wire format,
// failing on any non-2xx response. ServeEncode/... rows isolate the pooled
// encode path: allocations, bytes, and wall time per response envelope for
// both formats (the allocs_op/b_op columns DESIGN.md §5.12 cites).
func ServeLoadMeasure() (map[string]bench.Row, error) {
	f, err := bench.FixtureTerrain(0, 0)
	if err != nil {
		return nil, err
	}
	vr := f.ValueRange()
	rows := map[string]bench.Row{}

	for _, method := range []fielddb.Method{fielddb.LinearScan, fielddb.IHilbert} {
		db, err := fielddb.Open(f, fielddb.Options{Method: method})
		if err != nil {
			return nil, fmt.Errorf("serve: building %s: %w", method, err)
		}
		srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}}, Config{})
		base, stop, err := startLocalServer(srv)
		if err != nil {
			db.Close()
			return nil, err
		}
		for _, sel := range bench.Selectivities {
			queries := bench.FixtureQueries(vr, sel, 64)
			name := fmt.Sprintf("Serve/%s/sel=%.2f/clients=%d", method, sel, ServeClients)
			var physReads int
			var physSimNs int64
			start := time.Now()
			for off := 0; off < len(queries); off += ServeClients {
				end := off + ServeClients
				if end > len(queries) {
					end = len(queries)
				}
				bv, err := postBatch(base, "terrain", queries[off:end])
				if err != nil {
					stop()
					db.Close()
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				physReads += bv.PhysicalReads
				physSimNs += bv.PhysicalSimNs
			}
			n := float64(len(queries))
			row := bench.Row{
				NsOp:    float64(time.Since(start).Nanoseconds()) / n,
				PagesOp: float64(physReads) / n,
				SimNsOp: float64(physSimNs) / n,
			}
			if physSimNs > 0 {
				row.QPSSim = n / (float64(physSimNs) / 1e9)
			}
			rows[name] = row
		}
		stop()
		db.Close()
	}

	// The encode-path rows, measured before the load servers spin up so the
	// allocation counter attributes nothing foreign.
	if err := encodeMeasure(f, rows); err != nil {
		return nil, err
	}

	// The mixed wall-clock drive: window-armed server, concurrent
	// connections, zipf mix.
	db, err := fielddb.Open(f, fielddb.Options{
		Method:      fielddb.IHilbert,
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	srv := New(map[string]*Field{"terrain": {Querier: db, DB: db}}, Config{MaxInFlight: 256})
	base, stop, err := startLocalServer(srv)
	if err != nil {
		return nil, err
	}
	rep, err := RunLoad(LoadOptions{
		BaseURL:     base,
		Field:       "terrain",
		Connections: 16,
		Requests:    512,
		Seed:        bench.FixtureSeed,
	})
	stop()
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("serve: mixed load drive: %d of %d requests failed (statuses %v)",
			rep.Errors, rep.Requests, rep.StatusCounts)
	}
	if db.QueryMetrics().BatchQueries == 0 {
		return nil, fmt.Errorf("serve: mixed load drive bypassed the admission window (BatchQueries == 0)")
	}
	rows[fmt.Sprintf("ServeLoad/mixed/conns=%d", 16)] = bench.Row{
		QPS:   rep.QPS,
		P50Ns: float64(rep.P50),
		P95Ns: float64(rep.P95),
		P99Ns: float64(rep.P99),
	}

	// The wire-format scaling drives: one window-armed server, driven at
	// WireLoadConns connections per encoding with geometry payloads. The
	// in-flight cap is sized above the largest drive so admission never
	// sheds — a 429 here would count as an error and fail the run.
	wdb, err := fielddb.Open(f, fielddb.Options{
		Method:      fielddb.IHilbert,
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer wdb.Close()
	maxConns := WireLoadConns[len(WireLoadConns)-1]
	wsrv := New(map[string]*Field{"terrain": {Querier: wdb, DB: wdb}}, Config{
		MaxInFlight: 2 * maxConns,
		// Queueing delay at thousands of connections on a small host can
		// exceed the serving default; the drive measures throughput, not
		// deadline shedding, so a 504 would fail the run as an error.
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     5 * time.Minute,
	})
	wbase, wstop, err := startLocalServer(wsrv)
	if err != nil {
		return nil, err
	}
	defer wstop()
	for _, conns := range WireLoadConns {
		for _, wire := range []string{WireJSON, WireBin} {
			requests := conns
			if requests < 1024 {
				requests = 1024
			}
			rep, err := RunLoad(LoadOptions{
				BaseURL:     wbase,
				Field:       "terrain",
				Connections: conns,
				Requests:    requests,
				Seed:        bench.FixtureSeed,
				Wire:        wire,
				Geometry:    true,
				Transports:  (conns + 511) / 512,
			})
			name := fmt.Sprintf("ServeLoad/%s/conns=%d", wire, conns)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if rep.Errors > 0 {
				return nil, fmt.Errorf("%s: %d of %d requests failed (statuses %v)",
					name, rep.Errors, rep.Requests, rep.StatusCounts)
			}
			rows[name] = bench.Row{
				QPS:   rep.QPS,
				P50Ns: float64(rep.P50),
				P95Ns: float64(rep.P95),
				P99Ns: float64(rep.P99),
			}
		}
	}
	return rows, nil
}

// countingWriter tallies bytes without keeping them — the encode-path rows
// record payload size, not payload content.
type countingWriter struct {
	h http.Header
	n int64
}

func (c *countingWriter) Header() http.Header { return c.h }
func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
func (c *countingWriter) WriteHeader(int) {}

// measureAllocs reports the mean allocations of runs calls to f, the way
// testing.AllocsPerRun does (single-threaded, warmed up) but callable from
// the bench pipeline.
func measureAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm pools and scratch before counting
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// encodeMeasure isolates the pooled encode path on a mid-band range result:
// allocations per response (allocs_op), payload bytes (b_op), and wall time
// (ns_op) for each wire format, with and without geometry. These are the
// numbers behind the claim that the encoder — not the engine — got
// cheaper: end-to-end allocations are dominated by query execution, so the
// encode-path delta is recorded on its own.
func encodeMeasure(f fielddb.Field, rows map[string]bench.Row) error {
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert})
	if err != nil {
		return err
	}
	defer db.Close()
	vr := db.ValueRange()
	res, err := db.ValueQuery(vr.Lo+vr.Length()*0.45, vr.Lo+vr.Length()*0.55)
	if err != nil {
		return err
	}
	quoted := appendJSONString(nil, "terrain")
	for _, geom := range []bool{false, true} {
		for _, wire := range []string{WireJSON, WireBin} {
			w := &countingWriter{h: make(http.Header)}
			run := func() {
				c := getCodec(w)
				if wire == WireBin {
					c.writeResultFrame(w, "terrain", res, geom)
				} else {
					c.writeResultEnvelope(w, quoted, res, geom)
				}
				c.put()
			}
			runs := 200
			if geom {
				runs = 50
			}
			allocs := measureAllocs(runs, run)
			w.n = 0
			start := time.Now()
			for i := 0; i < runs; i++ {
				run()
			}
			elapsed := time.Since(start)
			rows[fmt.Sprintf("ServeEncode/range/geometry=%d/wire=%s", boolBit(geom), wire)] = bench.Row{
				NsOp:     float64(elapsed.Nanoseconds()) / float64(runs),
				BOp:      float64(w.n) / float64(runs),
				AllocsOp: allocs,
			}
		}
	}
	return nil
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// postBatch issues one /batch request and returns its batch stats.
func postBatch(baseURL, field string, intervals []fielddb.Interval) (*batchView, error) {
	var req batchRequest
	req.Intervals = make([][2]float64, len(intervals))
	for i, iv := range intervals {
		req.Intervals[i] = [2]float64{iv.Lo, iv.Hi}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/fields/%s/batch", baseURL, field),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("batch: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out struct {
		Batch *batchView `json:"batch"`
		Error string     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("batch: %s", out.Error)
	}
	if out.Batch == nil {
		return nil, fmt.Errorf("batch: response carries no batch stats")
	}
	return out.Batch, nil
}
