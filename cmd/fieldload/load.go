package main

// The deterministic HTTP query driver behind the fieldload command: the one
// load generator outside benchmark/, kept for the connection ladder (16 to
// 2048 connections, both wire formats) that benchmark/'s serve-closed and
// open-loop rows do not climb.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fielddb"
	"fielddb/internal/serve"
)

// Wire format names accepted by LoadOptions.Wire and the -wire flag.
const (
	WireJSON = "json"
	WireBin  = "bin"
)

// selectivities are the relative interval widths the zipf pool cycles
// through: the three regimes of the paper's evaluation, which the gated
// baseline and benchmark/ also measure.
var selectivities = []float64{0.01, 0.05, 0.10}

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
	// response each worker receives is decoded with serve.DecodeFrame as a
	// sanity check; subsequent bodies are drained without decoding so the
	// client does not bill its own parse cost to the server's throughput.
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
	for i := range pool {
		sel := selectivities[i%len(selectivities)]
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
			req.Header.Set("Accept", serve.WireMIME)
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
		return nil, fmt.Errorf("RunLoad needs BaseURL and Field")
	}
	switch opts.Wire {
	case "", WireJSON, WireBin:
	default:
		return nil, fmt.Errorf("unknown wire format %q (want %q or %q)", opts.Wire, WireJSON, WireBin)
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
						_, err = serve.DecodeFrame(buf.Bytes())
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
		return fielddb.Interval{}, fmt.Errorf("probing %s: %w", field, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fielddb.Interval{}, fmt.Errorf("probing %s: %s: %s", field, resp.Status, bytes.TrimSpace(body))
	}
	var info struct {
		ValueLo *float64 `json:"value_lo"`
		ValueHi *float64 `json:"value_hi"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fielddb.Interval{}, fmt.Errorf("probing %s: %w", field, err)
	}
	if info.ValueLo == nil || info.ValueHi == nil || *info.ValueHi < *info.ValueLo {
		return fielddb.Interval{}, fmt.Errorf("field %s reports no value range", field)
	}
	return fielddb.Interval{Lo: *info.ValueLo, Hi: *info.ValueHi}, nil
}
