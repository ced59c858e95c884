// Command fieldserve is the HTTP/JSON front door of the engine: it opens one
// or more fields — .fdb datasets built into live databases, or .fidx stored
// index files — and serves value-range, threshold, point, contour, batch,
// conjunction and update queries over them, with the engine's own admission
// control (BatchWindow group commit, per-request deadlines, an in-flight cap
// shedding load with 429, and zero-drop graceful drain on SIGINT/SIGTERM).
//
// Usage:
//
//	fieldserve                                   # demo fractal terrain as "demo"
//	fieldserve terrain=t.fdb                     # one live field
//	fieldserve live=t.fdb frozen=t.fidx          # live + read-only stored index
//	fieldserve -addr :9090 -batch-window 2ms -max-inflight 128 terrain=t.fdb
//	fieldserve -max-inflight 2048 -budget 256 -overflow 512 a=a.fdb b=b.fdb
//	fieldserve -approx-max-err 0.05 -degrade-approx terrain=t.fdb
//
// Each positional argument is name=path; .fidx paths open as read-only stored
// indexes, anything else loads as a dataset and builds a live database with
// -method. With no arguments a deterministic demo terrain is served as
// "demo". Endpoints are listed in the README's Serving section; /metrics and
// /traces expose the per-field observability registries as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fielddb"
	"fielddb/internal/fio"
	"fielddb/internal/serve"
)

// FlagError reports a rejected admission-control flag value and why, so
// scripts can tell a bad invocation apart from a serving failure (the same
// contract fieldgen's SideError gives -side). Value carries the offending
// value — an int for the token-pool flags, a float64 for -approx-max-err.
type FlagError struct {
	Flag   string
	Value  any
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("invalid -%s %v: %s", e.Flag, e.Value, e.Reason)
}

// validateAdmission rejects flag combinations serve.New would otherwise
// silently clamp or misconfigure: negative counts, and per-field budgets or
// overflow pools larger than the in-flight cap they partition.
func validateAdmission(maxInFlight, budget, overflow int) error {
	switch {
	case maxInFlight < 0:
		return &FlagError{"max-inflight", maxInFlight, "must be >= 0 (0 means the default cap)"}
	case budget < 0:
		return &FlagError{"budget", budget, "must be >= 0 (0 derives per-field budgets from -max-inflight)"}
	case overflow < 0:
		return &FlagError{"overflow", overflow, "must be >= 0 (0 derives the shared pool from -max-inflight)"}
	}
	cap := maxInFlight
	if cap == 0 {
		cap = serve.DefaultMaxInFlight
	}
	switch {
	case budget > cap:
		return &FlagError{"budget", budget, fmt.Sprintf("exceeds the in-flight cap %d", cap)}
	case overflow > cap:
		return &FlagError{"overflow", overflow, fmt.Sprintf("exceeds the in-flight cap %d", cap)}
	}
	return nil
}

// validateApprox rejects aggregate-tier flag values the serving stack would
// otherwise turn into per-request 400s (or quietly extreme behaviour):
// -approx-max-err must be a finite fraction >= 0. +Inf in particular is
// refused here even though the engine accepts it, because a server whose
// *default* tolerance is infinite answers every aggregate with whatever bound
// it has — that behaviour is what -degrade-approx opts into, and only for
// requests past the admission budget.
func validateApprox(approxMaxErr float64, degrade bool) error {
	switch {
	case math.IsNaN(approxMaxErr):
		return &FlagError{"approx-max-err", approxMaxErr, "must not be NaN"}
	case approxMaxErr < 0:
		return &FlagError{"approx-max-err", approxMaxErr, "must be >= 0 (0 means the engine default)"}
	case math.IsInf(approxMaxErr, 1):
		return &FlagError{"approx-max-err", approxMaxErr, "must be finite (use -degrade-approx to accept any certified bound past the admission budget)"}
	case degrade && approxMaxErr > 1:
		return &FlagError{"approx-max-err", approxMaxErr, "a fraction tolerance above 1 never constrains an answer; with -degrade-approx this hides every certified bound"}
	}
	return nil
}

// The no-argument demo field: the paper's 256×256 evaluation grid, under the
// seed the checked-in baselines measure, so a demo server answers with the
// numbers the docs quote.
const (
	defaultDemoSide = 256
	defaultDemoSeed = 4217
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		method      = flag.String("method", "I-Hilbert", "index method for .fdb fields: LinearScan | I-All | I-Hilbert")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "admission window: a value query runs at once while a core is free; those that find every core busy share one scan, after waiting at most this long (0 disables)")
		maxInFlight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "in-flight request cap; excess load is shed with 429")
		budget      = flag.Int("budget", 0, "per-field admission budget in requests (0 derives max-inflight/(2*fields))")
		overflow    = flag.Int("overflow", 0, "shared overflow pool fields may borrow from (0 derives the remainder of -max-inflight)")
		approxErr   = flag.Float64("approx-max-err", 0, "default error tolerance of /aggregate when the client sends no max_err (0 means the engine default, 1% of the field)")
		degrade     = flag.Bool("degrade-approx", false, "answer aggregate requests past the admission budget approximately (any certified bound, marked degraded) instead of shedding 429")
		timeout     = flag.Duration("timeout", serve.DefaultRequestTimeout, "default per-request deadline (clients may lower it with timeout_ms)")
		maxTimeout  = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "cap on client-requested deadlines")
		traceRing   = flag.Int("traces", 128, "per-field ring of recent query traces served at /traces (0 disables tracing)")
		demoSide    = flag.Int("demo-side", defaultDemoSide, "edge of the demo terrain in cells (no-argument mode)")
		demoSeed    = flag.Int64("demo-seed", defaultDemoSeed, "seed of the demo terrain (no-argument mode)")
	)
	flag.Parse()

	if err := validateAdmission(*maxInFlight, *budget, *overflow); err != nil {
		fatal(err)
	}
	if err := validateApprox(*approxErr, *degrade); err != nil {
		fatal(err)
	}

	fields := map[string]*serve.Field{}
	var closers []func() error
	defer func() {
		for _, c := range closers {
			_ = c()
		}
	}()

	specs := flag.Args()
	if len(specs) == 0 {
		f, err := fielddb.TerrainDEM(*demoSide, *demoSeed)
		if err != nil {
			fatal(err)
		}
		field, closer, err := openLive("demo", f, *method, *batchWindow, *traceRing)
		if err != nil {
			fatal(err)
		}
		fields["demo"] = field
		closers = append(closers, closer)
		log.Printf("serving demo %d×%d fractal terrain (seed %d) as %q", *demoSide, *demoSide, *demoSeed, "demo")
	}
	for _, spec := range specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fatal(fmt.Errorf("argument %q: want name=path", spec))
		}
		if _, dup := fields[name]; dup {
			fatal(fmt.Errorf("duplicate field name %q", name))
		}
		if strings.HasSuffix(path, ".fidx") {
			var tracer *fielddb.TraceCollector
			if *traceRing > 0 {
				tracer = fielddb.NewTraceCollector(*traceRing)
			}
			si, err := fielddb.OpenIndexWith(path, fielddb.OpenIndexOptions{
				Tracer:      tracerOrNil(tracer),
				BatchWindow: *batchWindow,
			})
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			fields[name] = &serve.Field{Querier: si, Traces: tracer}
			closers = append(closers, si.Close)
			log.Printf("field %q: stored index %s (%s, read-only)", name, path, si.Method())
			continue
		}
		f, err := fio.LoadFile(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		field, closer, err := openLive(name, f, *method, *batchWindow, *traceRing)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		fields[name] = field
		closers = append(closers, closer)
		log.Printf("field %q: live database from %s (%s)", name, path, field.DB.Method())
	}

	srv := serve.New(fields, serve.Config{
		MaxInFlight:     *maxInFlight,
		FieldBudget:     *budget,
		Overflow:        *overflow,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		ApproxMaxErr:    *approxErr,
		DegradeToApprox: *degrade,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan error, 1)
	go func() {
		err := hs.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	log.Printf("listening on %s (max in-flight %d, default timeout %v, batch window %v)",
		*addr, *maxInFlight, *timeout, *batchWindow)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Zero-drop stop: refuse new work and wait for admitted requests to
		// finish writing, then close the listener.
		log.Printf("%v: draining", s)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fatal(err)
		}
		<-done
		log.Printf("drained, bye")
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
}

// openLive builds a live database over f and wraps it as a served field.
func openLive(name string, f fielddb.Field, method string, window time.Duration, ring int) (*serve.Field, func() error, error) {
	var tracer *fielddb.TraceCollector
	if ring > 0 {
		tracer = fielddb.NewTraceCollector(ring)
	}
	db, err := fielddb.Open(f, fielddb.Options{
		Method:      fielddb.Method(method),
		Tracer:      tracerOrNil(tracer),
		BatchWindow: window,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("field %q: %w", name, err)
	}
	return &serve.Field{Querier: db, DB: db, Traces: tracer}, db.Close, nil
}

// tracerOrNil avoids the classic non-nil interface around a nil pointer: a
// disabled ring must reach the facade as a true nil Tracer.
func tracerOrNil(c *fielddb.TraceCollector) fielddb.Tracer {
	if c == nil {
		return nil
	}
	return c
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fieldserve:", err)
	os.Exit(1)
}
