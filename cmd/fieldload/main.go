// Command fieldload drives a running fieldserve instance with a deterministic
// query mix and reports end-to-end throughput and latency quantiles. The
// request sequence — a zipf draw over a small pool of value intervals spanning
// the bench suite's selectivity bands, with point queries mixed in — is fixed
// by -seed, so two drives against the same server issue identical work; only
// the timing varies.
//
// Usage:
//
//	fieldload -url http://127.0.0.1:8080 -field demo
//	fieldload -url http://127.0.0.1:8080 -field terrain -conns 32 -requests 2048
//	fieldload -field demo -aggregate 4        # every 4th request an aggregate
//	fieldload -field demo -wire bin -geometry  # binary frames, geometry payloads
//	fieldload -field demo -conns 2048 -transports 4
//	fieldload -field demo -json            # machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fielddb/internal/serve"
)

func main() {
	var (
		url        = flag.String("url", "http://127.0.0.1:8080", "base URL of the fieldserve instance")
		field      = flag.String("field", "demo", "field name to query")
		conns      = flag.Int("conns", 16, "concurrent client connections")
		requests   = flag.Int("requests", 512, "total requests across connections")
		seed       = flag.Int64("seed", 1, "seed of the deterministic request mix")
		intervals  = flag.Int("intervals", 32, "distinct intervals in the zipf pool (small pools model hot queries)")
		pointEvery = flag.Int("point-every", 8, "one point query per this many requests (negative disables)")
		aggregate  = flag.Int("aggregate", 0, "one approximate aggregate query per this many requests (0 disables)")
		wire       = flag.String("wire", WireJSON, "response encoding: json | bin (binary negotiates Accept: "+serve.WireMIME+")")
		geometry   = flag.Bool("geometry", false, "request region geometry on range queries (?geometry=1)")
		transports = flag.Int("transports", 1, "shard connections across this many HTTP transports (spreads pool contention at thousands of connections)")
		asJSON     = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	rep, err := RunLoad(LoadOptions{
		BaseURL:        *url,
		Field:          *field,
		Connections:    *conns,
		Requests:       *requests,
		Seed:           *seed,
		Intervals:      *intervals,
		PointEvery:     *pointEvery,
		AggregateEvery: *aggregate,
		Wire:           *wire,
		Geometry:       *geometry,
		Transports:     *transports,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fieldload:", err)
		os.Exit(1)
	}
	if *asJSON {
		out := map[string]any{
			"requests":      rep.Requests,
			"errors":        rep.Errors,
			"elapsed_ns":    rep.Elapsed.Nanoseconds(),
			"qps":           rep.QPS,
			"p50_ns":        rep.P50.Nanoseconds(),
			"p95_ns":        rep.P95.Nanoseconds(),
			"p99_ns":        rep.P99.Nanoseconds(),
			"status_counts": rep.StatusCounts,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fieldload:", err)
			os.Exit(1)
		}
	} else {
		fmt.Println(rep)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}
