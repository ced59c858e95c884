package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fielddb"
	"fielddb/internal/field"
	"fielddb/internal/serve"
)

// servedField is the name cmd/fieldserve gives its demo field.
const servedField = "demo"

// spanHeader carries the client span's id to the handler middleware of a
// traced pass, so the handler span knows its parent.
const spanHeader = "X-Bench-Span"

// serveState is the default fieldserve stack on a loopback listener.
type serveState struct {
	*liveState
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned
	base string
}

func (s *serveState) Close() error {
	if s == nil {
		return nil
	}
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if cerr := s.liveState.Close(); err == nil {
		err = cerr
	}
	return err
}

type spanKey struct{}

// callTracer is the timing decorator a traced pass hands to serve.Field: a
// "fielddb.call" span around each engine call the handlers make, filed under
// the handler span the middleware put in the request context.
type callTracer struct {
	fielddb.Querier
	tr *tracing
}

// begin opens the call span, or returns -1 for a request the middleware did
// not mark (an untraced pass through the same stack).
func (c callTracer) begin(ctx context.Context) int {
	parent, ok := ctx.Value(spanKey{}).(int)
	if !ok {
		return -1
	}
	id := c.tr.rec.begin("fielddb.call", parent, c.tr.rec.opOf(parent))
	c.tr.cur.Store(int64(id))
	return id
}

func (c callTracer) end(id, cells int) {
	if id >= 0 {
		c.tr.cur.Store(-1)
		c.tr.rec.end(id, cells, 0)
	}
}

func (c callTracer) ValueQueryContext(ctx context.Context, lo, hi float64) (*fielddb.Result, error) {
	id := c.begin(ctx)
	res, err := c.Querier.ValueQueryContext(ctx, lo, hi)
	cells := 0
	if res != nil {
		cells = res.CellsMatched
	}
	c.end(id, cells)
	return res, err
}

func (c callTracer) PointQueryContext(ctx context.Context, p fielddb.Point) (float64, error) {
	id := c.begin(ctx)
	v, err := c.Querier.PointQueryContext(ctx, p)
	c.end(id, 0)
	return v, err
}

func (c callTracer) ApproxAggregateContext(ctx context.Context, lo, hi, maxErr float64) (*fielddb.AggregateResult, error) {
	id := c.begin(ctx)
	res, err := c.Querier.ApproxAggregateContext(ctx, lo, hi, maxErr)
	c.end(id, 0)
	return res, err
}

// handlerSpans is the middleware of a traced pass: a "serve.handler" span
// around Server.Handler() for every request that names its client span.
func handlerSpans(next http.Handler, tr *tracing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.rec.begin("serve.handler", parent, tr.rec.opOf(parent))
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		tr.rec.end(id, 0, 0)
	})
}

// openServe is serve-closed's timed set-up: the live database exactly as
// cmd/fieldserve opens it with no flags (2 ms batch window, a 128-trace
// ring as the engine tracer), serve.New with the zero Config, a loopback
// HTTP/1.1 listener. With tr set, the stack is wrapped for a traced pass.
func openServe(sz sizing, tr *tracing) (*serveState, error) {
	ring := fielddb.NewTraceCollector(128)
	var tracer fielddb.Tracer = ring
	if tr != nil {
		tracer = fielddb.TracerFunc(func(qt *fielddb.QueryTrace) {
			ring.TraceQuery(qt)
			tr.rec.engine(int(tr.cur.Load()), qt)
		})
	}
	live, err := openLive(sz, fielddb.Options{
		Method: fielddb.IHilbert, Tracer: tracer, BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	var q fielddb.Querier = live.db
	if tr != nil {
		q = callTracer{Querier: live.db, tr: tr}
	}
	srv := serve.New(map[string]*serve.Field{servedField: {Querier: q, DB: live.db, Traces: ring}}, serve.Config{})
	handler := srv.Handler()
	if tr != nil {
		handler = handlerSpans(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		live.Close()
		return nil, err
	}
	s := &serveState{
		liveState: live, srv: srv,
		hs:   &http.Server{Handler: handler},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// served is what the client learned from one response.
type served struct {
	class    reqClass
	op       int // operation id of a traced request
	latency  time.Duration
	pages    int
	simNs    int64
	bytes    int
	fallback bool
}

// servePass is what one drive of the request list measured.
type servePass struct {
	done     []served
	elapsed  time.Duration
	mem      memDelta
	statuses map[int]int
}

// client is one keep-alive connection's worth of state.
type client struct {
	hc   *http.Client
	body bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// serveOracle holds what every response is checked against.
type serveOracle struct {
	f     fielddb.Field
	cells *oracle
	pool  []expected // the oracle's answers for the interval pool
}

// rangeBody is the part of a JSON range response the client checks; rings
// stay raw, only their number is compared.
type rangeBody struct {
	Result struct {
		CellsMatched int `json:"cells_matched"`
		Regions      int `json:"regions"`
		IO           struct {
			Reads        int   `json:"reads"`
			SimElapsedNs int64 `json:"sim_elapsed_ns"`
		} `json:"io"`
		Geometry []json.RawMessage `json:"geometry"`
	} `json:"result"`
}

type aggregateBody struct {
	Result struct {
		Count      float64 `json:"count"`
		CountBound float64 `json:"count_bound"`
		Fallback   bool    `json:"fallback"`
		IO         struct {
			Reads        int   `json:"reads"`
			SimElapsedNs int64 `json:"sim_elapsed_ns"`
		} `json:"io"`
	} `json:"result"`
}

type pointBody struct {
	Value float64 `json:"value"`
}

// do sends one request and checks the response against the oracle. due is
// when the request was due to go out (the open loop) or zero (the closed
// loop, timed from the send). The client span of a traced pass covers the
// exchange up to the last body byte, not the checking.
func (c *client) do(base string, r *request, or *serveOracle, tr *tracing, due time.Time) (served, int, error) {
	req, err := http.NewRequest(http.MethodGet, base+r.Path, nil)
	if err != nil {
		return served{}, 0, err
	}
	if r.Binary {
		req.Header.Set("Accept", serve.WireMIME)
	}
	root, op := -1, 0
	if tr != nil {
		op = int(tr.ops.Add(1))
		root = tr.rec.begin("http.client", -1, op)
		req.Header.Set(spanHeader, strconv.Itoa(root))
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return served{}, 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	sv := served{class: r.Class, op: op, latency: time.Since(due), bytes: c.body.Len()}
	if tr != nil {
		tr.rec.end(root, 0, sv.bytes)
	}
	if err != nil {
		return sv, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return sv, resp.StatusCode, fmt.Errorf("%s: status %d", r.Path, resp.StatusCode)
	}
	data := c.body.Bytes()
	switch r.Class {
	case classPoint:
		var b pointBody
		if err := json.Unmarshal(data, &b); err != nil {
			return sv, resp.StatusCode, err
		}
		want, ok := field.ValueAt(or.f, r.Point)
		if !ok || math.Abs(b.Value-want) > areaTolerance*math.Max(1, math.Abs(want)) {
			return sv, resp.StatusCode, fmt.Errorf("%s: value %g, oracle %g", r.Path, b.Value, want)
		}
	case classAggregate:
		var b aggregateBody
		if err := json.Unmarshal(data, &b); err != nil {
			return sv, resp.StatusCode, err
		}
		sv.pages, sv.simNs, sv.fallback = b.Result.IO.Reads, b.Result.IO.SimElapsedNs, b.Result.Fallback
		if err := or.pool[r.Interval].checkAggregate(b.Result.Count, b.Result.CountBound); err != nil {
			return sv, resp.StatusCode, fmt.Errorf("%s: %w", r.Path, err)
		}
	case classGeometryBin:
		frame, err := serve.DecodeFrame(data)
		if err != nil {
			return sv, resp.StatusCode, err
		}
		rf, ok := frame.(*serve.WireResultFrame)
		if !ok {
			return sv, resp.StatusCode, fmt.Errorf("%s: frame %T", r.Path, frame)
		}
		sv.pages, sv.simNs = rf.Result.IO.Reads, rf.Result.IO.SimElapsedNs
		if err := checkServed(r, or, rf.Result.CellsMatched, rf.Result.Regions, len(rf.Result.Geometry)); err != nil {
			return sv, resp.StatusCode, err
		}
	default:
		var b rangeBody
		if err := json.Unmarshal(data, &b); err != nil {
			return sv, resp.StatusCode, err
		}
		sv.pages, sv.simNs = b.Result.IO.Reads, b.Result.IO.SimElapsedNs
		rings := b.Result.Regions
		if r.Class == classGeometryJSON {
			rings = len(b.Result.Geometry)
		}
		if err := checkServed(r, or, b.Result.CellsMatched, b.Result.Regions, rings); err != nil {
			return sv, resp.StatusCode, err
		}
	}
	return sv, resp.StatusCode, nil
}

// checkServed compares a range response's counts with the oracle and its
// streamed ring count with the region count it announced.
func checkServed(r *request, or *serveOracle, cells, regions, rings int) error {
	if want := or.pool[r.Interval].cells; cells != want {
		return fmt.Errorf("%s: %d cells matched, oracle %d", r.Path, cells, want)
	}
	if rings != regions {
		return fmt.Errorf("%s: %d rings streamed, %d regions announced", r.Path, rings, regions)
	}
	return nil
}

// serveChunk is how many requests go out between two calibration stops of
// an end-to-end pass: about a quarter second of work, then every connection
// is idle while the kernel runs twice (calib.go).
const serveChunk = 64

// driveClosed runs reqs closed-loop over conns keep-alive connections in
// whole cycles of the list until d has passed, so the set of requests a
// pass issued — and with it every page count — is fixed by the seed.
func driveClosed(st *serveState, reqs []request, or *serveOracle, conns int, d time.Duration,
	tr *tracing, cal *calibration, out *outcome) servePass {
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	chunk := len(reqs)
	if cal != nil {
		chunk = serveChunk
	}
	pass := servePass{statuses: map[int]int{}}
	var mu sync.Mutex
	mem0 := readMem()
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < d; cycle++ {
		for lo := 0; lo < len(reqs); lo += chunk {
			hi := lo + chunk
			if hi > len(reqs) {
				hi = len(reqs)
			}
			var next atomic.Int64
			next.Store(int64(lo))
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *client) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= hi {
							return
						}
						sv, status, err := c.do(st.base, &reqs[i], or, tr, time.Time{})
						mu.Lock()
						out.attempted++
						pass.statuses[status]++
						if err != nil {
							out.fail(err)
						} else {
							pass.done = append(pass.done, sv)
						}
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			cal.tick(2)
		}
	}
	pass.elapsed = time.Since(start)
	pass.mem = readMem().since(mem0)
	if cal != nil {
		pass.elapsed -= cal.spent
		pass.mem.mallocs -= cal.mallocs()
	}
	return pass
}

// driveOpen sends n requests on a fixed schedule of rate per second through
// conns connections, timing each from the moment it was due, and returns the
// latencies with the mean lateness of the sends.
func driveOpen(st *serveState, reqs []request, or *serveOracle, conns, rate, n int, out *outcome) (latencies, time.Duration) {
	var lat latencies
	var late time.Duration
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
				time.Sleep(time.Until(due))
				lateBy := time.Since(due)
				sv, _, err := c.do(st.base, &reqs[i%len(reqs)], or, nil, due)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail(err)
				} else {
					lat = append(lat, sv.latency)
					late += lateBy
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(lat) == 0 {
		return lat, 0
	}
	return lat, late / time.Duration(len(lat))
}

// add folds another pass into p.
func (p *servePass) add(o servePass) {
	p.done = append(p.done, o.done...)
	p.elapsed += o.elapsed
	p.mem.add(o.mem)
	if p.statuses == nil {
		p.statuses = map[int]int{}
	}
	for code, n := range o.statuses {
		p.statuses[code] += n
	}
}

// byClass splits a pass's latencies by request class.
func (p *servePass) byClass() [numClasses]latencies {
	var out [numClasses]latencies
	for _, sv := range p.done {
		out[sv.class] = append(out[sv.class], sv.latency)
	}
	return out
}

func (p *servePass) all() latencies {
	lat := make(latencies, len(p.done))
	for i, sv := range p.done {
		lat[i] = sv.latency
	}
	return lat
}

// runServe is the product as served.
func runServe(cfg config) (*outcome, error) {
	sz := cfg.sizing()
	out := newOutcome()
	conns := runtime.NumCPU()

	if !cfg.trace {
		st, ss, err := timeSetups(sz.setups, func() (*serveState, error) { return openServe(sz, nil) })
		if err != nil {
			return nil, err
		}
		defer st.Close()
		out.warmPages, out.warmSimMs = st.warmPages, st.warmSimMs
		reqs, _, or := serveInputs(st, sz, cfg.seed)
		size, err := indexFileBytes(st.db, cfg.outDir)
		if err != nil {
			return nil, err
		}
		setupMetrics(out, ss, size, st.f.NumCells())
		cal := &calibration{}
		pass := driveClosed(st, reqs, or, conns, cfg.passLength(1), nil, cal, out)
		timing(out, pass.all(), pass.elapsed, cal)
		n := float64(len(pass.done))
		var pages, simNs float64
		for _, sv := range pass.done {
			pages += float64(sv.pages)
			simNs += float64(sv.simNs)
		}
		out.metrics["pages_per_query"] = pages / n
		out.metrics["simdisk_ms_per_query"] = simNs / 1e6 / n
		out.metrics["allocs_per_query"] = float64(pass.mem.mallocs) / n
		out.notef("%d connections", conns)
		return out, nil
	}

	tr := newTracing()
	st, err := openServe(sz, tr)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reqs, pool, or := serveInputs(st, sz, cfg.seed)

	// One client, so that a span's parent is never in doubt, on the first
	// quarter of the list, untraced and traced in turn so both sides of the
	// tracing overhead see the same requests under the same conditions. A
	// request without a span header records nothing, and the engine tracer
	// files nothing while no call span is current.
	short := reqs[:len(reqs)/4]
	var ref, traced servePass
	for start := time.Now(); ref.done == nil || time.Since(start) < cfg.passLength(0.35); {
		ref.add(driveClosed(st, short, or, 1, 0, nil, nil, out))
		traced.add(driveClosed(st, short, or, 1, 0, tr, nil, out))
	}

	classOf := map[int]reqClass{}
	for _, sv := range traced.done {
		classOf[sv.op] = sv.class
	}
	sum := tr.rec.summarizeBy(func(s span) string {
		if s.Name == "serve.handler" {
			return s.Name + "/" + classOf[s.Op].String()
		}
		return s.Name
	})
	m := out.metrics
	n := len(traced.done)
	var perClass [numClasses]int
	fallbacks := 0
	for _, sv := range traced.done {
		perClass[sv.class]++
		if sv.fallback {
			fallbacks++
		}
	}
	m["http.self_us_per_request"] = sum.perOpUs("http.client", n)
	for c := reqClass(0); c < numClasses; c++ {
		m["serve.self_us_"+c.String()] = sum.perOpUs("serve.handler/"+c.String(), perClass[c])
	}
	m["fielddb.facade_wait_us_per_query"] = sum.perOpUs("fielddb.call", n)
	spanRows(out, sum, n)
	aggregates := float64(perClass[classAggregate])
	m["approx.fallback_share"] = ratio(float64(fallbacks), aggregates)
	m["approx.summary_pages_per_query"] = ratio(float64(sum.pages["summary-eval"]), aggregates)
	refP50, _, _ := ref.all().tail(95)
	trP50, _, _ := traced.all().tail(95)
	m["obs.tracing_overhead_pct"] = 100 * (ratio(trP50, refP50) - 1)
	m["obs.spans_per_query"] = ratio(float64(sum.spans), float64(sum.ops))
	runtimeRows(out, ref.mem, len(ref.done))

	// The product's own concurrency, untraced: what the admission window
	// coalesces, what admission sheds, and client latency per class.
	before := st.db.Metrics()
	busy := driveClosed(st, reqs, or, conns, cfg.passLength(0.3), nil, nil, out)
	after := st.db.Metrics()
	valueQueries := 0
	for _, sv := range busy.done {
		if sv.class != classPoint && sv.class != classAggregate {
			valueQueries++
		}
	}
	batchRows(out, before.Engine, after.Engine, valueQueries)
	poolRows(out, before.ValuePool, after.ValuePool)
	reads := float64(len(busy.done))
	m["rstar.filter_pages_per_query"] = ratio(float64(after.Engine.IndexPagesRead-before.Engine.IndexPagesRead), reads)
	m["storage.cell_pages_per_query"] = ratio(float64(after.Engine.CellPagesRead-before.Engine.CellPagesRead), reads)
	m["storage.sidecar_pages_per_query"] = ratio(float64(after.Engine.SidecarPagesRead-before.Engine.SidecarPagesRead), reads)
	cls := busy.byClass()
	geometry := append(append(latencies(nil), cls[classGeometryJSON]...), cls[classGeometryBin]...)
	m["serve.p50_ms_range"], _, _ = cls[classRange].tail(95)
	m["serve.p50_ms_geometry"], _, _ = geometry.tail(95)
	m["serve.p50_ms_point"], _, _ = cls[classPoint].tail(95)
	m["serve.p50_ms_aggregate"], _, _ = cls[classAggregate].tail(95)

	// Open-loop ladder: informational, unbounded (README: why HTTP is gated
	// closed loop).
	step := cfg.seconds * 0.15
	lat60, late60 := driveOpen(st, reqs, or, conns, 60, int(60*step)+1, out)
	lat120, late120 := driveOpen(st, reqs, or, conns, 120, int(120*step)+1, out)
	m["serve.open_p50_ms_r60"], m["serve.open_p95_ms_r60"], _ = lat60.tail(95)
	_, m["serve.open_p95_ms_r120"], _ = lat120.tail(95)
	m["serve.open_lateness_ms"] = float64(late60+late120) / 2 / float64(time.Millisecond)

	adm := st.srv.Admission()
	for _, f := range adm.Fields {
		m["serve.shed_429"] += float64(f.Shed)
	}
	m["serve.timeouts_504"] = float64(ref.statuses[http.StatusGatewayTimeout] +
		traced.statuses[http.StatusGatewayTimeout] + busy.statuses[http.StatusGatewayTimeout])

	if err := directRows(out, cfg, st.f, st.db, pool, or.pool, or.cells); err != nil {
		return nil, err
	}
	return out, finishTrace(out, cfg, tr, sum)
}

// serveInputs generates the request list, its interval pool and the
// oracle's answers for the pool.
func serveInputs(st *serveState, sz sizing, seed int64) ([]request, []fielddb.Interval, *serveOracle) {
	reqs, pool := requestList(servedField, st.f.ValueRange(), st.f.Bounds(), sz.requests, seed)
	cells := newOracle(st.f)
	return reqs, pool, &serveOracle{f: st.f, cells: cells, pool: cells.answers(pool)}
}
