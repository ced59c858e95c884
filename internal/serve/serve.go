// Package serve is the HTTP serving tier over the fielddb facade: a front
// door (cmd/fieldserve) that exposes named query surfaces — live databases,
// stored index files, pinned snapshots, anything implementing
// fielddb.Querier — to remote clients.
//
// Every routed endpoint enters through one gate, admit, and the route table
// names the token pool it draws from: none for listings, metrics and traces;
// the field's budget, then a borrowed token from the shared overflow pool,
// then 429 + Retry-After, for queries and updates — so one hot field cannot
// starve the others; the same with degrade-instead-of-shed for aggregates;
// the overflow pool alone for cross-field conjunctions. The gate also refuses
// with 503 while draining, so a shutdown never drops a response, and sets the
// per-request deadline that rides the context facade. The gates count their
// own outcomes (Server.Admission); below them, concurrent value queries
// coalesce onto the shared-scan batch executor through Options.BatchWindow.
//
// Responses are JSON by default and a compact binary format (wire.go) when
// the client sends "Accept: application/x-fielddb-bin". A handler never knows
// which: admit binds one of the two encoders (encode.go) to the request's
// pooled codec — reused buffered writer, hand-built envelopes, chunked
// geometry streaming — so the steady-state request cycle allocates a small
// constant regardless of payload size.
//
// The package binds to the Querier interface alone for every read endpoint —
// the serving tier is the consumer the interface was cut for — and needs a
// concrete *fielddb.DB only where the interface cannot help: the write
// endpoint (UpdateSamples is a live-DB capability, not a query).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fielddb"
	"fielddb/internal/core"
	"fielddb/internal/obs"
)

// Field is one named query surface the server exposes.
type Field struct {
	// Querier answers every read endpoint.
	Querier fielddb.Querier
	// DB, when non-nil, enables the update endpoint for this field (a live
	// database; stored indexes and snapshots are read-only).
	DB *fielddb.DB
	// Traces, when non-nil, is the ring of recent query traces /traces
	// serves for this field. The caller installs it as the surface's tracer
	// (SetTracer / Options.Tracer); the server only reads it.
	Traces *fielddb.TraceCollector
}

// Config tunes the server's admission control.
type Config struct {
	// MaxInFlight is the total admission capacity, split into per-field
	// budgets plus the shared overflow pool; 0 means DefaultMaxInFlight.
	MaxInFlight int
	// FieldBudget is each field's own token budget. A field whose budget is
	// exhausted borrows from the overflow pool before shedding 429, so a hot
	// field saturates at most FieldBudget+Overflow while cold fields keep
	// their own tokens. 0 derives max(1, MaxInFlight/(2·nfields)) — half the
	// capacity reserved per field, half pooled.
	FieldBudget int
	// Overflow is the shared overflow pool: tokens borrowed by over-budget
	// fields and the only pool cross-field requests (/v1/and) draw from.
	// 0 derives MaxInFlight − FieldBudget·nfields (clamped at 0, which keeps
	// the derived total exactly MaxInFlight — with one field and
	// MaxInFlight 1 the pool is empty and /v1/and always sheds).
	Overflow int
	// DefaultTimeout is the per-request deadline when the client sends no
	// timeout_ms parameter; 0 means DefaultRequestTimeout. A request that
	// outlives its deadline answers 504.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// RetryAfter is the Retry-After hint (rounded up to whole seconds) on
	// 429 and 503 responses; 0 means one second.
	RetryAfter time.Duration
	// ApproxMaxErr is the aggregate endpoint's default error tolerance when
	// the client sends no max_err parameter; 0 defers to
	// fielddb.DefaultApproxMaxErr.
	ApproxMaxErr float64
	// DegradeToApprox changes what happens to an aggregate request when its
	// field's budget and the overflow pool are exhausted: instead of
	// shedding 429, the request runs token-free with tolerance +Inf — the
	// summary pages answer with whatever certified bound they have, at most
	// a handful of page reads — and the response is marked "degraded".
	// Exact (non-aggregate) traffic still sheds; a summary-less field's
	// aggregate falls back to the exact pipeline and still runs, so only
	// enable this where every served field carries a summary.
	DegradeToApprox bool
}

// Defaults for the zero Config.
const (
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxTimeout     = 30 * time.Second
)

// pool names the admission pool a route draws its token from.
type pool uint8

const (
	// poolNone: no token. Listings, metrics and traces answer from in-memory
	// state and must stay observable while the query budgets are saturated.
	poolNone pool = iota
	// poolField: the field's own budget first, a borrowed overflow token
	// second, 429 when both are exhausted.
	poolField
	// poolAggregate: poolField, except that under Config.DegradeToApprox an
	// exhausted budget degrades the request instead of shedding it — it runs
	// token-free with tolerance +Inf, a handful of summary-page reads that are
	// safe outside the budget, and the response says "degraded".
	poolAggregate
	// poolShared: the overflow pool only (/v1/and), so conjunctions compete
	// with over-budget fields, never with any field's reserved tokens.
	poolShared
)

// fieldGate is one field's admission state: its token bucket, whose length is
// the occupancy gauge, and the outcomes it has decided.
type fieldGate struct {
	tokens                             chan struct{}
	admitted, borrowed, shed, degraded atomic.Int64
}

// Server routes HTTP queries to named Queriers. Create with New, mount via
// Handler, stop with Drain.
type Server struct {
	cfg        Config
	fields     map[string]*Field
	names      []string // sorted, for deterministic listings
	gates      map[string]*fieldGate
	overflow   chan struct{}
	retryAfter string // the Retry-After hint on 429 and 503, whole seconds
	mux        *http.ServeMux
	draining   atomic.Bool
	wg         sync.WaitGroup

	sharedAdmitted, sharedShed, drainRefused atomic.Int64
}

// New returns a Server exposing the given fields.
func New(fields map[string]*Field, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultRequestTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	nfields := len(fields)
	if cfg.FieldBudget <= 0 {
		if nfields > 0 {
			cfg.FieldBudget = cfg.MaxInFlight / (2 * nfields)
		}
		if cfg.FieldBudget < 1 {
			cfg.FieldBudget = 1
		}
	}
	if cfg.Overflow <= 0 {
		cfg.Overflow = cfg.MaxInFlight - cfg.FieldBudget*nfields
		if cfg.Overflow < 0 {
			cfg.Overflow = 0
		}
	}
	s := &Server{
		cfg:        cfg,
		fields:     make(map[string]*Field, nfields),
		gates:      make(map[string]*fieldGate, nfields),
		overflow:   make(chan struct{}, cfg.Overflow),
		retryAfter: strconv.Itoa(int((cfg.RetryAfter + time.Second - 1) / time.Second)),
		mux:        http.NewServeMux(),
	}
	for name, f := range fields {
		s.fields[name] = f
		s.names = append(s.names, name)
		s.gates[name] = &fieldGate{tokens: make(chan struct{}, cfg.FieldBudget)}
	}
	sort.Strings(s.names)
	// The route table: every endpoint but /healthz enters through admit, and
	// names the pool its token comes from.
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/fields", s.admit(poolNone, s.handleList))
	s.mux.HandleFunc("GET /v1/fields/{name}", s.admit(poolNone, s.handleDescribe))
	s.mux.HandleFunc("GET /v1/fields/{name}/range", s.admit(poolField, s.handleValue("lo", "hi")))
	s.mux.HandleFunc("GET /v1/fields/{name}/above", s.admit(poolField, s.handleValue("lo", "")))
	s.mux.HandleFunc("GET /v1/fields/{name}/below", s.admit(poolField, s.handleValue("", "hi")))
	s.mux.HandleFunc("GET /v1/fields/{name}/point", s.admit(poolField, s.handlePoint))
	s.mux.HandleFunc("GET /v1/fields/{name}/contour", s.admit(poolField, s.handleContour))
	s.mux.HandleFunc("GET /v1/fields/{name}/aggregate", s.admit(poolAggregate, s.handleAggregate))
	s.mux.HandleFunc("POST /v1/fields/{name}/batch", s.admit(poolField, s.handleBatch))
	s.mux.HandleFunc("POST /v1/fields/{name}/update", s.admit(poolField, s.handleUpdate))
	s.mux.HandleFunc("POST /v1/and", s.admit(poolShared, s.handleAnd))
	s.mux.HandleFunc("GET /metrics", s.admit(poolNone, s.handleMetrics))
	s.mux.HandleFunc("GET /traces", s.admit(poolNone, s.handleTraces))
	return s
}

// Handler returns the server's routing handler, ready for http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server in drain mode: every subsequent request is refused
// with 503 + Retry-After, and Drain blocks until the requests admitted before
// the switch have finished writing their responses. Pair it with
// http.Server.Shutdown for a zero-drop stop.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.wg.Wait()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Admission returns a snapshot of the server's admission accounting, read off
// the gates themselves: the counters are the ones admit moves and the gauges
// are the token channels' lengths, so neither can drift from its pool.
func (s *Server) Admission() obs.AdmissionSnapshot {
	a := obs.AdmissionSnapshot{
		FieldBudget:    int64(s.cfg.FieldBudget),
		Overflow:       int64(s.cfg.Overflow),
		OverflowInUse:  int64(len(s.overflow)),
		SharedAdmitted: s.sharedAdmitted.Load(),
		SharedShed:     s.sharedShed.Load(),
		DrainRefused:   s.drainRefused.Load(),
	}
	for _, name := range s.names {
		g := s.gates[name]
		a.Fields = append(a.Fields, obs.FieldAdmission{
			Field:       name,
			Admitted:    g.admitted.Load(),
			Borrowed:    g.borrowed.Load(),
			Shed:        g.shed.Load(),
			Degraded:    g.degraded.Load(),
			BudgetInUse: int64(len(g.tokens)),
		})
	}
	return a
}

// request is one admitted request as its handler sees it: the pooled codec
// that carries the response, the request under its deadline context, and what
// admit decided about it.
type request struct {
	codec
	r        *http.Request
	out      encoder // the negotiated wire format, bound to the codec
	degraded bool    // a poolAggregate request running token-free
}

// failErr answers err through mapError.
func (q *request) failErr(err error) { q.out.fail(mapError(err), err.Error()) }

// admit is the one gate in front of every routed endpoint. It leases the
// request's codec, binds the encoder of the negotiated format, refuses while
// draining, joins the drain group, takes a token from p, and runs h under the
// request's deadline (the default, or a capped timeout_ms).
func (s *Server) admit(p pool, h func(*request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := lease(w)
		defer q.put()
		q.out = jsonCodec{&q.codec}
		if strings.Contains(r.Header.Get("Accept"), WireMIME) {
			q.out = binCodec{&q.codec}
		}
		if s.draining.Load() {
			s.drainRefused.Add(1)
			s.refuse(q, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.wg.Add(1)
		defer s.wg.Done()
		held, ok := s.take(p, r.PathValue("name"), q)
		if !ok {
			return
		}
		if held != nil {
			defer func() { <-held }()
		}
		timeout := s.cfg.DefaultTimeout
		if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
			ms, err := strconv.Atoi(raw)
			if err != nil || ms <= 0 {
				q.out.fail(http.StatusBadRequest, "timeout_ms must be a positive integer")
				return
			}
			// Cap in milliseconds: multiplying first lets a large timeout_ms
			// overflow into a negative, already-expired duration.
			timeout = s.cfg.MaxTimeout
			if int64(ms) < timeout.Milliseconds() {
				timeout = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		q.r = r.WithContext(ctx)
		h(q)
	}
}

// take draws q's token from pool p and counts the outcome on the gate that
// decided it. It returns the channel now holding the token — nil when the
// request runs token-free: a poolNone route, a degraded aggregate, or an
// unknown field, whose handler answers 404, so a typo cannot consume
// admission capacity — and false after refusing with 429.
func (s *Server) take(p pool, name string, q *request) (chan struct{}, bool) {
	if p == poolNone {
		return nil, true
	}
	if p == poolShared {
		select {
		case s.overflow <- struct{}{}:
			s.sharedAdmitted.Add(1)
			return s.overflow, true
		default:
			s.sharedShed.Add(1)
			s.refuse(q, http.StatusTooManyRequests, "overflow pool exhausted")
			return nil, false
		}
	}
	g, ok := s.gates[name]
	if !ok {
		return nil, true
	}
	select {
	case g.tokens <- struct{}{}:
		g.admitted.Add(1)
		return g.tokens, true
	default:
	}
	select {
	case s.overflow <- struct{}{}:
		g.borrowed.Add(1)
		return s.overflow, true
	default:
	}
	if p == poolAggregate && s.cfg.DegradeToApprox {
		g.degraded.Add(1)
		q.degraded = true
		return nil, true
	}
	g.shed.Add(1)
	s.refuse(q, http.StatusTooManyRequests, "field budget and overflow pool exhausted")
	return nil, false
}

// refuse turns a request away at the gate: Retry-After plus the error in the
// negotiated format.
func (s *Server) refuse(q *request, status int, msg string) {
	q.w.Header().Set("Retry-After", s.retryAfter)
	q.out.fail(status, msg)
}

// mapError translates facade errors to HTTP statuses: validation failures to
// 400, capability gaps to 501, deadline misses to 504, closed or draining
// surfaces to 503, everything else to 500.
func mapError(err error) int {
	switch {
	case errors.Is(err, fielddb.ErrInvertedInterval),
		errors.Is(err, fielddb.ErrNonFiniteBound),
		errors.Is(err, fielddb.ErrBadTolerance),
		errors.Is(err, fielddb.ErrBadConjunction),
		errors.Is(err, fielddb.ErrOutsideField):
		return http.StatusBadRequest
	case errors.Is(err, fielddb.ErrNoPartition),
		errors.Is(err, fielddb.ErrUpdatesUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		return http.StatusServiceUnavailable
	case errors.Is(err, fielddb.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// field resolves {name}, answering 404 itself when unknown.
func (s *Server) field(q *request) (*Field, string, bool) {
	name := q.r.PathValue("name")
	f, ok := s.fields[name]
	if !ok {
		q.out.fail(http.StatusNotFound, fmt.Sprintf("unknown field %q", name))
	}
	return f, name, ok
}

// queryFloat parses one required float query parameter.
func queryFloat(r *http.Request, key string) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", key, err)
	}
	return v, nil
}

// viewResult is the wire form of one value-query result. Geometry is opt-in
// (?geometry=1) — the counts, area and I/O answer most monitoring and load
// generation needs at a fraction of the payload. The hot handlers stream this
// shape by hand (encode.go); the struct encoding remains the reference for the
// conjunction endpoint and the byte-identity tests. Its I/O block is the
// deterministic accounting every query response carries: page counts and the
// simulated disk clock, never wall time (that would make responses
// nondeterministic and belongs in /metrics).
func viewResult(res *fielddb.Result, geometry bool) WireResult {
	v := WireResult{
		Lo:              res.Query.Lo,
		Hi:              res.Query.Hi,
		CandidateGroups: res.CandidateGroups,
		CellsFetched:    res.CellsFetched,
		CellsMatched:    res.CellsMatched,
		Regions:         res.RegionCount,
		Isolines:        res.IsolineCount,
		Area:            res.Area,
		IO: WireIO{
			Reads:        res.IO.Reads,
			SeqReads:     res.IO.SeqReads,
			RandReads:    res.IO.RandReads,
			CacheHits:    res.IO.CacheHits,
			SimElapsedNs: int64(res.IO.SimElapsed),
		},
	}
	if geometry {
		v.Geometry = viewRings(res.Regions)
	}
	return v
}

// viewRings is the wire form of a geometry block: one coordinate-pair list per
// ring.
func viewRings(polys []fielddb.Polygon) [][][2]float64 {
	rings := make([][][2]float64, len(polys))
	for i, poly := range polys {
		ring := make([][2]float64, len(poly))
		for j, p := range poly {
			ring[j] = [2]float64{p.X, p.Y}
		}
		rings[i] = ring
	}
	return rings
}

func wantGeometry(r *http.Request) bool {
	return r.URL.Query().Get("geometry") == "1"
}

// valueContext is the context a value query runs under: ctx, marked
// core.WithMeasure unless the response streams rings — one without them reads
// counts, area and I/O alone, so the engine builds no polygon for it. The
// encoding is the same either way. The request rides the context, not
// Querier.ValueMeasureContext, because a Field's Querier may wrap another and
// override only the value query it times or limits: the wrapper forwards the
// context, while a method it does not override would bypass it, or panic where
// it wraps nothing.
func valueContext(ctx context.Context, geometry bool) context.Context {
	if geometry {
		return ctx
	}
	return core.WithMeasure(ctx)
}

// handleHealth is the one unrouted endpoint: it answers from the drain flag
// alone, during a drain too, so it takes no part in admission.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	q := lease(w)
	defer q.put()
	q.header("application/json", http.StatusOK)
	b := append(q.buf[:0], `{"draining":`...)
	b = strconv.AppendBool(b, s.draining.Load())
	b = append(b, `,"status":"ok"}`...)
	b = append(b, '\n')
	q.bw.Write(b)
	q.buf = b[:0]
}

// fieldInfo is name's entry in the field listing.
func (s *Server) fieldInfo(name string) WireFieldInfo {
	f := s.fields[name]
	st := f.Querier.Stats()
	vr := f.Querier.ValueRange()
	return WireFieldInfo{
		Name:         name,
		Method:       string(f.Querier.Method()),
		Cells:        st.Cells,
		CellPages:    st.CellPages,
		IndexPages:   st.IndexPages,
		SidecarPages: st.SidecarPages,
		Groups:       st.Groups,
		TreeHeight:   st.TreeHeight,
		ValueLo:      vr.Lo,
		ValueHi:      vr.Hi,
		Writable:     f.DB != nil,
	}
}

func (s *Server) handleList(q *request) {
	out := make([]WireFieldInfo, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.fieldInfo(name))
	}
	q.out.list(out)
}

func (s *Server) handleDescribe(q *request) {
	if _, name, ok := s.field(q); ok {
		q.out.describe(s.fieldInfo(name))
	}
}

// handleValue answers the value-query endpoints — one query with an optional
// end. loKey and hiKey name the bounds the route requires; an empty key leaves
// that end open (/above has no hi, /below no lo) for the facade to complete
// from the field's value range.
func (s *Server) handleValue(loKey, hiKey string) func(*request) {
	return func(q *request) {
		f, name, ok := s.field(q)
		if !ok {
			return
		}
		var lo, hi float64
		var err error
		if loKey != "" {
			lo, err = queryFloat(q.r, loKey)
		}
		if err == nil && hiKey != "" {
			hi, err = queryFloat(q.r, hiKey)
		}
		if err != nil {
			q.out.fail(http.StatusBadRequest, err.Error())
			return
		}
		var res *fielddb.Result
		geometry := wantGeometry(q.r)
		ctx := valueContext(q.r.Context(), geometry)
		switch {
		case hiKey == "":
			res, err = f.Querier.ValueAboveContext(ctx, lo)
		case loKey == "":
			res, err = f.Querier.ValueBelowContext(ctx, hi)
		default:
			res, err = f.Querier.ValueQueryContext(ctx, lo, hi)
		}
		if err != nil {
			q.failErr(err)
			return
		}
		q.out.result(name, res, geometry)
	}
}

func (s *Server) handlePoint(q *request) {
	f, name, ok := s.field(q)
	if !ok {
		return
	}
	x, err := queryFloat(q.r, "x")
	if err != nil {
		q.out.fail(http.StatusBadRequest, err.Error())
		return
	}
	y, err := queryFloat(q.r, "y")
	if err != nil {
		q.out.fail(http.StatusBadRequest, err.Error())
		return
	}
	v, err := f.Querier.PointQueryContext(q.r.Context(), fielddb.Point{X: x, Y: y})
	if err != nil {
		q.failErr(err)
		return
	}
	q.out.point(name, x, y, v)
}

func (s *Server) handleContour(q *request) {
	f, name, ok := s.field(q)
	if !ok {
		return
	}
	level, err := queryFloat(q.r, "level")
	if err != nil {
		q.out.fail(http.StatusBadRequest, err.Error())
		return
	}
	cr, err := f.Querier.ContourMapContext(q.r.Context(), level)
	if err != nil {
		q.failErr(err)
		return
	}
	q.out.contour(name, level, cr, wantGeometry(q.r))
}

// handleAggregate answers GET /v1/fields/{name}/aggregate: count, area and
// matched-area fraction of the cells whose value intersects [lo, hi], with
// certified error bounds when the field's summary answered (approx true) and
// exact otherwise (fallback true). The optional max_err parameter overrides
// the server's configured tolerance; degraded requests (poolAggregate) run
// with +Inf regardless, accepting any certified bound.
func (s *Server) handleAggregate(q *request) {
	f, name, ok := s.field(q)
	if !ok {
		return
	}
	lo, err := queryFloat(q.r, "lo")
	if err != nil {
		q.out.fail(http.StatusBadRequest, err.Error())
		return
	}
	hi, err := queryFloat(q.r, "hi")
	if err != nil {
		q.out.fail(http.StatusBadRequest, err.Error())
		return
	}
	maxErr := s.cfg.ApproxMaxErr
	if raw := q.r.URL.Query().Get("max_err"); raw != "" {
		v, perr := strconv.ParseFloat(raw, 64)
		if perr != nil {
			q.out.fail(http.StatusBadRequest, fmt.Sprintf("query parameter %q: %v", "max_err", perr))
			return
		}
		maxErr = v
	}
	if q.degraded {
		maxErr = math.Inf(1)
	}
	res, err := f.Querier.ApproxAggregateContext(q.r.Context(), lo, hi, maxErr)
	if err != nil {
		q.failErr(err)
		return
	}
	q.out.aggregate(name, res, q.degraded)
}

// batchRequest is the POST body of /batch.
type batchRequest struct {
	Intervals [][2]float64 `json:"intervals"`
}

// batchStatser is the optional surface capability behind the /batch
// response's batch-level stats: DB and StoredIndex execute explicit batches
// as one shared scan and can report its physical (deduplicated) cost.
type batchStatser interface {
	ValueQueryBatchStats(ctx context.Context, intervals []fielddb.Interval) ([]*fielddb.Result, fielddb.BatchStats, error)
}

// maxBatchBody bounds the /batch, /update and /v1/and request bodies.
const maxBatchBody = 8 << 20

// decodeBody reads the POST body through the pooled reader, bounded by
// maxBatchBody, and decodes it strictly into v; it is false after a 400
// naming the body kind was written.
func (q *request) decodeBody(kind string, v any) bool {
	body, err := q.readBody(q.r.Body, maxBatchBody)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		q.out.fail(http.StatusBadRequest, "malformed "+kind+" body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleBatch(q *request) {
	f, name, ok := s.field(q)
	if !ok {
		return
	}
	// Decode into the pooled pair slice: Unmarshal reuses its capacity, so a
	// steady stream of batches stops allocating interval storage.
	req := batchRequest{Intervals: q.pairs[:0]}
	if !q.decodeBody("batch", &req) {
		return
	}
	q.pairs = req.Intervals
	intervals := q.intervals[:0]
	for _, iv := range req.Intervals {
		intervals = append(intervals, fielddb.Interval{Lo: iv[0], Hi: iv[1]})
	}
	q.intervals = intervals
	var (
		results []*fielddb.Result
		st      *fielddb.BatchStats
		qerr    error
	)
	geometry := wantGeometry(q.r)
	ctx := valueContext(q.r.Context(), geometry)
	if bs, ok := f.Querier.(batchStatser); ok {
		var bst fielddb.BatchStats
		results, bst, qerr = bs.ValueQueryBatchStats(ctx, intervals)
		if qerr == nil || results != nil {
			st = &bst
		}
	} else {
		results, qerr = f.Querier.ValueQueryBatch(ctx, intervals)
	}
	if qerr != nil && results == nil {
		q.failErr(qerr)
		return
	}
	// Partial failure: successful members keep their slots, the first
	// failure is reported alongside (HTTP 200 — the batch ran).
	q.out.batch(name, results, st, qerr, geometry)
}

// updateRequest is the POST body of /update.
type updateRequest struct {
	Updates []struct {
		Sample int     `json:"sample"`
		Value  float64 `json:"value"`
	} `json:"updates"`
}

func (s *Server) handleUpdate(q *request) {
	f, name, ok := s.field(q)
	if !ok {
		return
	}
	if f.DB == nil {
		q.out.fail(http.StatusNotImplemented,
			fmt.Sprintf("field %q is read-only (not a live database)", name))
		return
	}
	var req updateRequest
	if !q.decodeBody("update", &req) {
		return
	}
	if len(req.Updates) == 0 {
		q.out.fail(http.StatusBadRequest, "empty update batch")
		return
	}
	updates := make([]fielddb.SampleUpdate, len(req.Updates))
	for i, u := range req.Updates {
		updates[i] = fielddb.SampleUpdate{Sample: u.Sample, Value: u.Value}
	}
	st, err := f.DB.UpdateSamples(q.r.Context(), updates)
	if err != nil {
		q.failErr(err)
		return
	}
	q.out.update(name, st)
}

// andRequest is the POST body of /v1/and: one (field, interval) condition per
// entry, evaluated conjunctively across surfaces sharing a spatial domain.
type andRequest struct {
	Conditions []struct {
		Field string  `json:"field"`
		Lo    float64 `json:"lo"`
		Hi    float64 `json:"hi"`
	} `json:"conditions"`
}

func (s *Server) handleAnd(q *request) {
	var req andRequest
	if !q.decodeBody("and", &req) {
		return
	}
	qs := make([]fielddb.Querier, len(req.Conditions))
	intervals := make([]fielddb.Interval, len(req.Conditions))
	for i, cond := range req.Conditions {
		f, ok := s.fields[cond.Field]
		if !ok {
			q.out.fail(http.StatusNotFound, fmt.Sprintf("unknown field %q (condition %d)", cond.Field, i))
			return
		}
		qs[i] = f.Querier
		intervals[i] = fielddb.Interval{Lo: cond.Lo, Hi: cond.Hi}
	}
	res, err := fielddb.AndQueriers(q.r.Context(), qs, intervals)
	if err != nil {
		q.failErr(err)
		return
	}
	q.out.and(res, wantGeometry(q.r))
}

// handleMetrics renders each field's metrics snapshot and the admission
// snapshot as they are: their JSON tags are the wire contract. The endpoint
// has no binary form.
func (s *Server) handleMetrics(q *request) {
	fields := make(map[string]obs.Snapshot, len(s.names))
	for _, name := range s.names {
		fields[name] = s.fields[name].Querier.QueryMetrics()
	}
	q.marshal(http.StatusOK, map[string]any{
		"fields":    fields,
		"admission": s.Admission(),
	})
}

// handleTraces renders the recent traces of every field (or ?field= alone)
// that keeps a ring. Like /metrics it is JSON only, its 404 included.
func (s *Server) handleTraces(q *request) {
	want := q.r.URL.Query().Get("field")
	if _, ok := s.fields[want]; want != "" && !ok {
		jsonCodec{&q.codec}.fail(http.StatusNotFound, fmt.Sprintf("unknown field %q", want))
		return
	}
	out := make(map[string]any)
	for _, name := range s.names {
		f := s.fields[name]
		if f.Traces == nil || (want != "" && name != want) {
			continue
		}
		traces := f.Traces.Traces()
		views := make([]obs.TraceView, len(traces))
		for i, t := range traces {
			views[i] = t.View()
		}
		out[name] = map[string]any{
			"total":  f.Traces.Total(),
			"traces": views,
		}
	}
	q.marshal(http.StatusOK, map[string]any{"fields": out})
}
