// Package serve is the HTTP serving tier over the fielddb facade: a front
// door (cmd/fieldserve) that exposes named query surfaces — live databases,
// stored index files, pinned snapshots, anything implementing
// fielddb.Querier — to remote clients, with the admission machinery the
// engine already has. Concurrent value queries coalesce onto the shared-scan
// batch executor through Options.BatchWindow group commit; per-request
// deadlines ride the context facade; per-field token budgets plus a shared
// overflow pool shed load with 429 + Retry-After so one hot field cannot
// starve the others; and a drain mode refuses new work with 503 while
// in-flight requests finish, so a shutdown never drops a response.
//
// Responses are JSON by default and a compact binary format (wire.go) when
// the client sends "Accept: application/x-fielddb-bin". Both paths run on
// pooled per-request scratch (encode.go): reused buffered writers, hand-built
// envelopes, and chunked geometry streaming, so the steady-state request
// cycle allocates a small constant regardless of payload size.
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

// fieldGate is one field's admission state: its token bucket and its slot in
// the admission metrics registry.
type fieldGate struct {
	tokens chan struct{}
	slot   int
}

// Server routes HTTP queries to named Queriers. Create with New, mount via
// Handler, stop with Drain.
type Server struct {
	cfg      Config
	fields   map[string]*Field
	names    []string          // sorted, for deterministic listings
	quoted   map[string][]byte // JSON-quoted field names, escaped once at New
	gates    map[string]*fieldGate
	overflow chan struct{}
	adm      *obs.AdmissionMetrics
	mux      *http.ServeMux
	draining atomic.Bool
	wg       sync.WaitGroup
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
		cfg:      cfg,
		fields:   make(map[string]*Field, nfields),
		quoted:   make(map[string][]byte, nfields),
		gates:    make(map[string]*fieldGate, nfields),
		overflow: make(chan struct{}, cfg.Overflow),
		adm:      obs.NewAdmissionMetrics(cfg.FieldBudget, cfg.Overflow),
	}
	for name, f := range fields {
		s.fields[name] = f
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		s.quoted[name] = appendJSONString(nil, name)
		s.gates[name] = &fieldGate{
			tokens: make(chan struct{}, cfg.FieldBudget),
			slot:   s.adm.RegisterField(name),
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/fields", s.admitLight(s.handleList))
	s.mux.HandleFunc("GET /v1/fields/{name}", s.admitLight(s.handleDescribe))
	s.mux.HandleFunc("GET /v1/fields/{name}/range", s.admitField(s.handleRange))
	s.mux.HandleFunc("GET /v1/fields/{name}/above", s.admitField(s.handleAbove))
	s.mux.HandleFunc("GET /v1/fields/{name}/below", s.admitField(s.handleBelow))
	s.mux.HandleFunc("GET /v1/fields/{name}/point", s.admitField(s.handlePoint))
	s.mux.HandleFunc("GET /v1/fields/{name}/contour", s.admitField(s.handleContour))
	s.mux.HandleFunc("GET /v1/fields/{name}/aggregate", s.admitAggregate())
	s.mux.HandleFunc("POST /v1/fields/{name}/batch", s.admitField(s.handleBatch))
	s.mux.HandleFunc("POST /v1/fields/{name}/update", s.admitField(s.handleUpdate))
	s.mux.HandleFunc("POST /v1/and", s.admitShared(s.handleAnd))
	s.mux.HandleFunc("GET /metrics", s.admitLight(s.handleMetrics))
	s.mux.HandleFunc("GET /traces", s.admitLight(s.handleTraces))
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

// Admission returns a snapshot of the server's admission accounting.
func (s *Server) Admission() obs.AdmissionSnapshot { return s.adm.Snapshot() }

// wantBinary reports whether the request negotiates the binary wire format.
func wantBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), WireMIME)
}

// handlerFn is an admitted handler: it runs with the request's pooled codec
// and the negotiated format, inside the drain group, under the deadline
// context.
type handlerFn func(c *codec, w http.ResponseWriter, r *http.Request, bin bool)

// writeFail writes err's envelope in the negotiated format.
func writeFail(c *codec, w http.ResponseWriter, bin bool, status int, msg string) {
	if bin {
		c.writeErrorFrame(w, status, msg)
	} else {
		c.writeErrorEnvelope(w, status, msg)
	}
}

// fail writes err through mapError.
func fail(c *codec, w http.ResponseWriter, bin bool, err error) {
	writeFail(c, w, bin, mapError(err), err.Error())
}

// retryAfterSeconds renders the Retry-After hint (whole seconds, minimum 1).
func (s *Server) retryAfterSeconds() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// enter is the admission prelude every endpoint shares: the drain refusal and
// the drain group's accounting. It reports false after writing the 503; on
// true the caller owes s.wg.Done().
func (s *Server) enter(c *codec, w http.ResponseWriter, r *http.Request, bin bool) bool {
	if s.draining.Load() {
		s.adm.RecordDrainRefusal()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeFail(c, w, bin, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	s.wg.Add(1)
	return true
}

// deadline resolves the request's timeout (default, or a capped timeout_ms)
// and returns the derived context; ok is false after a 400 was written.
func (s *Server) deadline(c *codec, w http.ResponseWriter, r *http.Request, bin bool) (context.Context, context.CancelFunc, bool) {
	timeout := s.cfg.DefaultTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			writeFail(c, w, bin, http.StatusBadRequest, "timeout_ms must be a positive integer")
			return nil, nil, false
		}
		// Cap in milliseconds: multiplying first lets a large timeout_ms
		// overflow into a negative, already-expired duration.
		timeout = s.cfg.MaxTimeout
		if int64(ms) < timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, true
}

// acquire takes one admission token for g: the field's own budget first, a
// borrowed overflow token second. It returns the matching release, or false
// when both pools are exhausted — the caller decides the outcome (429 and
// RecordShed, or the aggregate endpoint's degraded mode).
func (s *Server) acquire(g *fieldGate) (func(), bool) {
	select {
	case g.tokens <- struct{}{}:
		s.adm.RecordAdmit(g.slot)
		return func() {
			<-g.tokens
			s.adm.RecordRelease(g.slot)
		}, true
	default:
	}
	select {
	case s.overflow <- struct{}{}:
		s.adm.RecordBorrow(g.slot)
		return func() {
			<-s.overflow
			s.adm.RecordOverflowRelease()
		}, true
	default:
		return nil, false
	}
}

// admitField wraps a per-field endpoint: drain refusal, the field's token
// budget (with overflow borrowing), and the deadline. Unknown fields skip the
// token path — the handler answers their 404 — so a typo cannot consume
// admission capacity.
func (s *Server) admitField(h handlerFn) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bin := wantBinary(r)
		c := getCodec(w)
		defer c.put()
		if !s.enter(c, w, r, bin) {
			return
		}
		defer s.wg.Done()
		if g, ok := s.gates[r.PathValue("name")]; ok {
			release, admitted := s.acquire(g)
			if !admitted {
				s.adm.RecordShed(g.slot)
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeFail(c, w, bin, http.StatusTooManyRequests, "field budget and overflow pool exhausted")
				return
			}
			defer release()
		}
		ctx, cancel, ok := s.deadline(c, w, r, bin)
		if !ok {
			return
		}
		defer cancel()
		h(c, w, r.WithContext(ctx), bin)
	}
}

// admitAggregate wraps the aggregate endpoint. It admits like admitField,
// but when the field's budget and the overflow pool are both exhausted and
// Config.DegradeToApprox is set, the request proceeds without a token in
// degraded mode instead of shedding: the handler forces tolerance +Inf, so
// the summary pages answer with whatever certified bound they carry — a
// handful of page reads, safe to run outside the admission budget — and the
// response is marked degraded so clients can tell the bound was not chosen.
func (s *Server) admitAggregate() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bin := wantBinary(r)
		c := getCodec(w)
		defer c.put()
		if !s.enter(c, w, r, bin) {
			return
		}
		defer s.wg.Done()
		degraded := false
		if g, ok := s.gates[r.PathValue("name")]; ok {
			release, admitted := s.acquire(g)
			switch {
			case admitted:
				defer release()
			case s.cfg.DegradeToApprox:
				degraded = true
				s.adm.RecordDegrade(g.slot)
			default:
				s.adm.RecordShed(g.slot)
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeFail(c, w, bin, http.StatusTooManyRequests, "field budget and overflow pool exhausted")
				return
			}
		}
		ctx, cancel, ok := s.deadline(c, w, r, bin)
		if !ok {
			return
		}
		defer cancel()
		s.handleAggregate(c, w, r.WithContext(ctx), bin, degraded)
	}
}

// admitShared wraps a cross-field endpoint (/v1/and): it draws from the
// overflow pool only, so conjunctions compete with over-budget fields, never
// with any field's reserved tokens.
func (s *Server) admitShared(h handlerFn) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bin := wantBinary(r)
		c := getCodec(w)
		defer c.put()
		if !s.enter(c, w, r, bin) {
			return
		}
		defer s.wg.Done()
		select {
		case s.overflow <- struct{}{}:
			s.adm.RecordSharedAdmit()
			defer func() {
				<-s.overflow
				s.adm.RecordOverflowRelease()
			}()
		default:
			s.adm.RecordSharedShed()
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeFail(c, w, bin, http.StatusTooManyRequests, "overflow pool exhausted")
			return
		}
		ctx, cancel, ok := s.deadline(c, w, r, bin)
		if !ok {
			return
		}
		defer cancel()
		h(c, w, r.WithContext(ctx), bin)
	}
}

// admitLight wraps a metadata endpoint (listings, metrics, traces): drain
// refusal and the drain group, but no admission token — these answer from
// in-memory state and must stay observable while query budgets are saturated.
func (s *Server) admitLight(h handlerFn) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bin := wantBinary(r)
		c := getCodec(w)
		defer c.put()
		if !s.enter(c, w, r, bin) {
			return
		}
		defer s.wg.Done()
		ctx, cancel, ok := s.deadline(c, w, r, bin)
		if !ok {
			return
		}
		defer cancel()
		h(c, w, r.WithContext(ctx), bin)
	}
}

// mapError translates facade errors to HTTP statuses: validation failures to
// 400, capability gaps to 501, deadline misses to 504, closed or draining
// surfaces to 503, everything else to 500.
func mapError(err error) int {
	switch {
	case errors.Is(err, fielddb.ErrInvertedInterval),
		errors.Is(err, fielddb.ErrNonFiniteBound),
		errors.Is(err, fielddb.ErrBadTolerance),
		errors.Is(err, fielddb.ErrBadConjunction):
		return http.StatusBadRequest
	case errors.Is(err, fielddb.ErrNoSpatialIndex),
		errors.Is(err, fielddb.ErrNoPartition),
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
func (s *Server) field(c *codec, w http.ResponseWriter, r *http.Request, bin bool) (*Field, string, bool) {
	name := r.PathValue("name")
	f, ok := s.fields[name]
	if !ok {
		writeFail(c, w, bin, http.StatusNotFound, fmt.Sprintf("unknown field %q", name))
		return nil, name, false
	}
	return f, name, true
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

// writeJSONValue marshals v through the pooled encoder (the cold endpoints
// whose payloads are metadata, not per-request hot-path work).
func (c *codec) writeJSONValue(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	c.encodeJSON(v)
}

// ioView is the deterministic I/O accounting attached to query responses:
// page counts and the simulated disk clock, never wall time (wall time would
// make responses nondeterministic and belongs in /metrics).
type ioView struct {
	Reads        int   `json:"reads"`
	SeqReads     int   `json:"seq_reads"`
	RandReads    int   `json:"rand_reads"`
	CacheHits    int   `json:"cache_hits"`
	SimElapsedNs int64 `json:"sim_elapsed_ns"`
}

// resultView is the wire form of one value-query result. Geometry is opt-in
// (?geometry=1) — the counts, area and I/O answer most monitoring and load
// generation needs at a fraction of the payload. The hot handlers stream this
// shape by hand (encode.go); the struct remains the reference encoding for
// the conjunction endpoint and the byte-identity tests.
type resultView struct {
	Lo              float64        `json:"lo"`
	Hi              float64        `json:"hi"`
	CandidateGroups int            `json:"candidate_groups"`
	CellsFetched    int            `json:"cells_fetched"`
	CellsMatched    int            `json:"cells_matched"`
	Regions         int            `json:"regions"`
	Isolines        int            `json:"isolines"`
	Area            float64        `json:"area"`
	IO              ioView         `json:"io"`
	Geometry        [][][2]float64 `json:"geometry,omitempty"`
}

func viewIO(st fielddb.Result) ioView {
	return ioView{
		Reads:        st.IO.Reads,
		SeqReads:     st.IO.SeqReads,
		RandReads:    st.IO.RandReads,
		CacheHits:    st.IO.CacheHits,
		SimElapsedNs: int64(st.IO.SimElapsed),
	}
}

func viewResult(res *fielddb.Result, geometry bool) resultView {
	v := resultView{
		Lo:              res.Query.Lo,
		Hi:              res.Query.Hi,
		CandidateGroups: res.CandidateGroups,
		CellsFetched:    res.CellsFetched,
		CellsMatched:    res.CellsMatched,
		Regions:         len(res.Regions),
		Isolines:        len(res.Isolines),
		Area:            res.Area,
		IO:              viewIO(*res),
	}
	if geometry {
		v.Geometry = make([][][2]float64, len(res.Regions))
		for i, poly := range res.Regions {
			ring := make([][2]float64, len(poly))
			for j, p := range poly {
				ring[j] = [2]float64{p.X, p.Y}
			}
			v.Geometry[i] = ring
		}
	}
	return v
}

func wantGeometry(r *http.Request) bool {
	return r.URL.Query().Get("geometry") == "1"
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c := getCodec(w)
	defer c.put()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := append(c.buf[:0], `{"draining":`...)
	b = strconv.AppendBool(b, s.draining.Load())
	b = append(b, `,"status":"ok"}`...)
	b = append(b, '\n')
	c.bw.Write(b)
	c.buf = b[:0]
}

// fieldInfo is one entry of the field listing.
type fieldInfo struct {
	Name         string  `json:"name"`
	Method       string  `json:"method"`
	Cells        int     `json:"cells"`
	CellPages    int     `json:"cell_pages"`
	IndexPages   int     `json:"index_pages"`
	SidecarPages int     `json:"sidecar_pages"`
	Groups       int     `json:"groups"`
	TreeHeight   int     `json:"tree_height"`
	ValueLo      float64 `json:"value_lo"`
	ValueHi      float64 `json:"value_hi"`
	Writable     bool    `json:"writable"`
}

func (s *Server) fieldInfo(name string) fieldInfo {
	f := s.fields[name]
	st := f.Querier.Stats()
	vr := f.Querier.ValueRange()
	return fieldInfo{
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

func (s *Server) handleList(c *codec, w http.ResponseWriter, _ *http.Request, bin bool) {
	out := make([]fieldInfo, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.fieldInfo(name))
	}
	if bin {
		c.writeListFrame(w, out)
		return
	}
	c.writeJSONValue(w, http.StatusOK, map[string]any{"fields": out})
}

func (s *Server) handleDescribe(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	_, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	if bin {
		c.writeDescribeFrame(w, s.fieldInfo(name))
		return
	}
	c.writeJSONValue(w, http.StatusOK, s.fieldInfo(name))
}

func (s *Server) handleRange(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	lo, err := queryFloat(r, "lo")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	hi, err := queryFloat(r, "hi")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	res, err := f.Querier.ValueQueryContext(r.Context(), lo, hi)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeResultFrame(w, name, res, wantGeometry(r))
		return
	}
	c.writeResultEnvelope(w, s.quoted[name], res, wantGeometry(r))
}

func (s *Server) handleAbove(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	lo, err := queryFloat(r, "lo")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	res, err := f.Querier.ValueAboveContext(r.Context(), lo)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeResultFrame(w, name, res, wantGeometry(r))
		return
	}
	c.writeResultEnvelope(w, s.quoted[name], res, wantGeometry(r))
}

func (s *Server) handleBelow(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	hi, err := queryFloat(r, "hi")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	res, err := f.Querier.ValueBelowContext(r.Context(), hi)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeResultFrame(w, name, res, wantGeometry(r))
		return
	}
	c.writeResultEnvelope(w, s.quoted[name], res, wantGeometry(r))
}

func (s *Server) handlePoint(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	x, err := queryFloat(r, "x")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	y, err := queryFloat(r, "y")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	v, err := f.Querier.PointQueryContext(r.Context(), fielddb.Point{X: x, Y: y})
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writePointFrame(w, name, x, y, v)
		return
	}
	c.writePointEnvelope(w, s.quoted[name], x, y, v)
}

func (s *Server) handleContour(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	level, err := queryFloat(r, "level")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	cr, err := f.Querier.ContourMapContext(r.Context(), level)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeContourFrame(w, name, level, cr, wantGeometry(r))
		return
	}
	c.writeContourEnvelope(w, s.quoted[name], level, cr, wantGeometry(r))
}

// handleAggregate answers GET /v1/fields/{name}/aggregate: count, area and
// matched-area fraction of the cells whose value intersects [lo, hi], with
// certified error bounds when the field's summary answered (approx true) and
// exact otherwise (fallback true). The optional max_err parameter overrides
// the server's configured tolerance; degraded requests (admitAggregate) run
// with +Inf regardless, accepting any certified bound.
func (s *Server) handleAggregate(c *codec, w http.ResponseWriter, r *http.Request, bin, degraded bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	lo, err := queryFloat(r, "lo")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	hi, err := queryFloat(r, "hi")
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, err.Error())
		return
	}
	maxErr := s.cfg.ApproxMaxErr
	if raw := r.URL.Query().Get("max_err"); raw != "" {
		v, perr := strconv.ParseFloat(raw, 64)
		if perr != nil {
			writeFail(c, w, bin, http.StatusBadRequest, fmt.Sprintf("query parameter %q: %v", "max_err", perr))
			return
		}
		maxErr = v
	}
	if degraded {
		maxErr = math.Inf(1)
	}
	res, err := f.Querier.ApproxAggregateContext(r.Context(), lo, hi, maxErr)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeAggregateFrame(w, name, res, degraded)
		return
	}
	c.writeAggregateEnvelope(w, s.quoted[name], res, degraded)
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

// batchView is the wire form of one batch's shared-execution summary.
type batchView struct {
	Size            int   `json:"size"`
	PhysicalReads   int   `json:"physical_reads"`
	PhysicalSimNs   int64 `json:"physical_sim_ns"`
	AttributedReads int   `json:"attributed_reads"`
	PagesSaved      int   `json:"pages_saved"`
}

// maxBatchBody bounds the /batch, /update and /v1/and request bodies.
const maxBatchBody = 8 << 20

// decodeBody reads a POST body through the pooled reader, bounded by
// maxBatchBody, and decodes it strictly into v; it is false after a 400
// naming the body kind was written.
func decodeBody(c *codec, w http.ResponseWriter, r *http.Request, bin bool, kind string, v any) bool {
	body, err := c.readBody(r.Body, maxBatchBody)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		writeFail(c, w, bin, http.StatusBadRequest, "malformed "+kind+" body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleBatch(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	// Decode into the pooled pair slice: Unmarshal reuses its capacity, so a
	// steady stream of batches stops allocating interval storage.
	req := batchRequest{Intervals: c.pairs[:0]}
	if !decodeBody(c, w, r, bin, "batch", &req) {
		return
	}
	c.pairs = req.Intervals
	intervals := c.intervals[:0]
	for _, iv := range req.Intervals {
		intervals = append(intervals, fielddb.Interval{Lo: iv[0], Hi: iv[1]})
	}
	c.intervals = intervals
	var (
		results []*fielddb.Result
		st      *fielddb.BatchStats
		qerr    error
	)
	if bs, ok := f.Querier.(batchStatser); ok {
		var bst fielddb.BatchStats
		results, bst, qerr = bs.ValueQueryBatchStats(r.Context(), intervals)
		if qerr == nil || results != nil {
			st = &bst
		}
	} else {
		results, qerr = f.Querier.ValueQueryBatch(r.Context(), intervals)
	}
	if qerr != nil && results == nil {
		fail(c, w, bin, qerr)
		return
	}
	// Partial failure: successful members keep their slots, the first
	// failure is reported alongside (HTTP 200 — the batch ran).
	if bin {
		c.writeBatchFrame(w, name, results, st, qerr, wantGeometry(r))
		return
	}
	c.writeBatchEnvelope(w, s.quoted[name], results, st, qerr, wantGeometry(r))
}

// updateRequest is the POST body of /update.
type updateRequest struct {
	Updates []struct {
		Sample int     `json:"sample"`
		Value  float64 `json:"value"`
	} `json:"updates"`
}

func (s *Server) handleUpdate(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	f, name, ok := s.field(c, w, r, bin)
	if !ok {
		return
	}
	if f.DB == nil {
		writeFail(c, w, bin, http.StatusNotImplemented,
			fmt.Sprintf("field %q is read-only (not a live database)", name))
		return
	}
	var req updateRequest
	if !decodeBody(c, w, r, bin, "update", &req) {
		return
	}
	if len(req.Updates) == 0 {
		writeFail(c, w, bin, http.StatusBadRequest, "empty update batch")
		return
	}
	updates := make([]fielddb.SampleUpdate, len(req.Updates))
	for i, u := range req.Updates {
		updates[i] = fielddb.SampleUpdate{Sample: u.Sample, Value: u.Value}
	}
	st, err := f.DB.UpdateSamples(r.Context(), updates)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeUpdateFrame(w, name, st)
		return
	}
	c.writeUpdateEnvelope(w, s.quoted[name], st)
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

func (s *Server) handleAnd(c *codec, w http.ResponseWriter, r *http.Request, bin bool) {
	var req andRequest
	if !decodeBody(c, w, r, bin, "and", &req) {
		return
	}
	qs := make([]fielddb.Querier, len(req.Conditions))
	intervals := make([]fielddb.Interval, len(req.Conditions))
	for i, cond := range req.Conditions {
		f, ok := s.fields[cond.Field]
		if !ok {
			writeFail(c, w, bin, http.StatusNotFound, fmt.Sprintf("unknown field %q (condition %d)", cond.Field, i))
			return
		}
		qs[i] = f.Querier
		intervals[i] = fielddb.Interval{Lo: cond.Lo, Hi: cond.Hi}
	}
	res, err := fielddb.AndQueriers(r.Context(), qs, intervals)
	if err != nil {
		fail(c, w, bin, err)
		return
	}
	if bin {
		c.writeAndFrame(w, res, wantGeometry(r))
		return
	}
	perField := make([]resultView, len(res.PerField))
	for i, pr := range res.PerField {
		perField[i] = viewResult(pr, false)
	}
	out := map[string]any{
		"regions":   len(res.Regions),
		"area":      res.Area,
		"per_field": perField,
	}
	if wantGeometry(r) {
		geom := make([][][2]float64, len(res.Regions))
		for i, poly := range res.Regions {
			ring := make([][2]float64, len(poly))
			for j, p := range poly {
				ring[j] = [2]float64{p.X, p.Y}
			}
			geom[i] = ring
		}
		out["geometry"] = geom
	}
	c.writeJSONValue(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(c *codec, w http.ResponseWriter, _ *http.Request, _ bool) {
	out := make(map[string]obs.SnapshotView, len(s.names))
	for _, name := range s.names {
		out[name] = s.fields[name].Querier.QueryMetrics().View()
	}
	c.writeJSONValue(w, http.StatusOK, map[string]any{
		"fields":    out,
		"admission": s.adm.Snapshot().View(),
	})
}

func (s *Server) handleTraces(c *codec, w http.ResponseWriter, r *http.Request, _ bool) {
	want := r.URL.Query().Get("field")
	out := make(map[string]any)
	for _, name := range s.names {
		if want != "" && name != want {
			continue
		}
		f := s.fields[name]
		if f.Traces == nil {
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
	if want != "" {
		if _, ok := s.fields[want]; !ok {
			writeFail(c, w, false, http.StatusNotFound, fmt.Sprintf("unknown field %q", want))
			return
		}
	}
	c.writeJSONValue(w, http.StatusOK, map[string]any{"fields": out})
}
