// Package obs is the engine's observability layer: per-query traces made of
// phase spans whose page counts reconcile exactly with the query's own I/O
// statistics, plus an atomic metrics registry (metrics.go) that the facade
// exposes as DB.Metrics and cmd/fieldbench dumps with -metrics. Snapshot and
// AdmissionSnapshot carry the serving tier's JSON names as tags, so a counter
// is declared once; only a trace, whose phases and begin time need
// translating, has View types (json.go).
//
// The package sits below internal/storage in the dependency order: storage
// carries a *TraceBuilder on each per-query execution context, so obs must
// not import storage. PageCounts mirrors the fields of storage.Stats for
// that reason.
//
// Tracing is pull-free and allocation-free when disabled: a nil Tracer makes
// Begin return a nil *TraceBuilder, and every TraceBuilder method is inert on
// a nil receiver, so call sites never branch on whether tracing is installed.
// Span page counts are deltas of the query context's private statistics taken
// at phase boundaries — the hot page-read loop is never touched, which is
// also what makes the reconciliation invariant structural: as long as every
// page-reading stage of a query runs inside a span, the span page counts of a
// successful query sum exactly to its reported I/O.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Phase names one stage of a query pipeline, following the paper's two-step
// cost accounting (filter step vs refinement step, §2.2.2) plus the stages
// the facade adds around it.
type Phase uint8

// The phases of the query pipelines.
const (
	// PhaseFilter is the filter step: the R*-tree search for candidate
	// subfields (or candidate cells, for I-All).
	PhaseFilter Phase = iota
	// PhaseRefine is the refinement/estimation step: reading candidate cell
	// pages, testing intervals, and computing the exact answer geometry.
	PhaseRefine
	// PhaseDecode is the conventional query's cell stage: fetching candidate
	// cells of a point query and interpolating.
	PhaseDecode
	// PhaseContour is isoline assembly over a finished zero-width query's
	// segments; it reads no pages.
	PhaseContour
	// PhaseSidecar is a filter step served by the columnar interval sidecar:
	// a sequential scan of packed (lo, hi) pages instead of cell pages. Its
	// page counts are what Metrics attributes to SidecarPagesRead.
	PhaseSidecar
	// PhaseBatchFetch is the shared fetch of a KindBatch trace: the
	// deduplicated physical page reads that served a whole batch of value
	// queries. It appears only in batch-level traces, never in per-query
	// ones — the member queries report their attributed pages through the
	// usual phases.
	PhaseBatchFetch
	// PhasePatch is the staging step of a KindUpdate trace: reading the
	// current images of every page an update batch touches (cell pages,
	// sidecar pages) to build the copy-on-write overlays. Its page counts
	// are reads — the pages written at commit are reported through Metrics.
	PhasePatch
	// PhaseMaintain is the index-maintenance step of a KindUpdate trace:
	// re-deriving the subfield partition, patching or rebuilding the value
	// R*-tree, and refreshing the field summary. Page counts are the
	// tree-node reads of a hydration and the summary-page staging reads.
	PhaseMaintain
	// PhaseTilePrune is the tiled planner's prune step: testing every tile's
	// (min, max) value summary (and MBR, for spatial queries) against the
	// query. It reads no pages — pruned tiles cost zero I/O, which the span's
	// zero page counts assert.
	PhaseTilePrune
	// PhaseTileScan is the scatter step over one residual tile: the tile's
	// own filter + refinement pipeline. A tiled query emits one span per
	// scanned tile (or one combined span when tiles scan in parallel).
	PhaseTileScan
	// PhaseSummary is the aggregate tier's summary evaluation: reading the
	// dedicated polynomial-summary pages and evaluating the fitted cumulative
	// functions. Its page counts are the whole point — a few pages at any
	// selectivity (zero when a tiled shortcut answers from tile metadata
	// alone).
	PhaseSummary
	numPhases
)

// NumPhases is the number of defined phases, for sizing per-phase tables.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{"filter", "refine", "decode", "contour-assemble", "sidecar-filter", "batch-fetch", "patch", "index-maintain", "tile-prune", "tile-scan", "summary-eval"}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// The query kinds distinguished in traces.
const (
	KindValue   = "value"   // field value query F⁻¹(w' ≤ w ≤ w″)
	KindPoint   = "point"   // conventional query F(v')
	KindApprox  = "approx"  // summary-only approximate value query
	KindContour = "contour" // isoline assembly after a zero-width value query
	// KindBatch marks the batch-level trace of one shared-scan batch: its Lo
	// and Hi are the covering interval of the member queries, its IO the
	// *physical* (deduplicated) page activity. Member queries additionally
	// emit their own KindValue traces with attributed (as-if-solo) counts.
	KindBatch = "batch"
	// KindUpdate marks the trace of one UpdateSamples batch: a patch span
	// (staging reads) followed by an index-maintain span (regrouping, tree
	// maintenance, summary refresh).
	// Lo carries the number of sample updates, Hi the number of cells
	// touched; the trace IO is the batch's read activity — writes land in
	// Metrics as UpdatePagesWritten.
	KindUpdate = "update"
	// KindAggregate marks an approximate range-aggregate query: a summary
	// span reading at most the dedicated summary pages and — only when the
	// certified bound exceeded the caller's tolerance — the exact pipeline's
	// spans after it. The trace IO still reconciles to the answer's
	// Result-level accounting.
	KindAggregate = "aggregate"
)

// PageCounts is the page-access activity attributable to one span. It mirrors
// the read-side fields of storage.Stats (obs sits below storage in the import
// order and cannot name that type).
type PageCounts struct {
	Reads      int           // page reads that reached the simulated disk
	SeqReads   int           // reads charged at sequential cost
	RandReads  int           // reads charged at random cost
	CacheHits  int           // reads served by the (per-query) cache view
	SimElapsed time.Duration // simulated disk time of the charged reads
}

// Sub returns c - o, the activity between two snapshots.
func (c PageCounts) Sub(o PageCounts) PageCounts {
	return PageCounts{
		Reads:      c.Reads - o.Reads,
		SeqReads:   c.SeqReads - o.SeqReads,
		RandReads:  c.RandReads - o.RandReads,
		CacheHits:  c.CacheHits - o.CacheHits,
		SimElapsed: c.SimElapsed - o.SimElapsed,
	}
}

// Add returns c + o.
func (c PageCounts) Add(o PageCounts) PageCounts {
	return PageCounts{
		Reads:      c.Reads + o.Reads,
		SeqReads:   c.SeqReads + o.SeqReads,
		RandReads:  c.RandReads + o.RandReads,
		CacheHits:  c.CacheHits + o.CacheHits,
		SimElapsed: c.SimElapsed + o.SimElapsed,
	}
}

// Span is one phase of one query: where the query's wall time and page
// accesses went.
type Span struct {
	Phase Phase
	// Start is the span's offset from the trace's Begin.
	Start time.Duration
	// Duration is the span's wall-clock length.
	Duration time.Duration
	// Pages is the page activity charged to the query while the span was
	// open.
	Pages PageCounts
}

// QueryTrace is the record of one finished query.
type QueryTrace struct {
	// Method is the index strategy that served the query ("I-Hilbert",
	// "LinearScan", "Spatial", ...).
	Method string
	// Kind is the query class (KindValue, KindPoint, KindApprox,
	// KindContour).
	Kind string
	// Lo and Hi are the value interval of a value query; for KindPoint they
	// carry the query point's X and Y.
	Lo, Hi float64
	// Begin is the query's wall-clock start, Duration its total length.
	Begin    time.Time
	Duration time.Duration
	// Spans are the query's phases in execution order.
	Spans []Span
	// IO is the sum of the spans' page counts. For a successful query it
	// equals the query's Result.IO; a query abandoned on an error may leave
	// its last span (and therefore IO) undercounted.
	IO PageCounts
	// Err is the query's error text, empty on success.
	Err string
}

// String implements fmt.Stringer with a compact one-line rendering.
func (t *QueryTrace) String() string {
	s := fmt.Sprintf("%s %s [%g, %g] %v reads=%d hits=%d",
		t.Method, t.Kind, t.Lo, t.Hi, t.Duration, t.IO.Reads, t.IO.CacheHits)
	for _, sp := range t.Spans {
		s += fmt.Sprintf(" %s=%v/%dp", sp.Phase, sp.Duration, sp.Pages.Reads)
	}
	if t.Err != "" {
		s += " err=" + t.Err
	}
	return s
}

// Tracer receives one QueryTrace per finished query. Implementations must be
// safe for concurrent use; the trace is owned by the tracer after the call.
type Tracer interface {
	TraceQuery(*QueryTrace)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(*QueryTrace)

// TraceQuery implements Tracer.
func (f TracerFunc) TraceQuery(t *QueryTrace) { f(t) }

// TraceBuilder accumulates one query's spans. A nil builder (the nil-tracer
// fast path) is inert: every method returns immediately, so query pipelines
// call Begin/EndSpan unconditionally.
//
// A builder is owned by one query and is not safe for concurrent use; the
// parallel refinement step's worker contexts never touch it — their activity
// reaches the refine span when the parent context merges them.
type TraceBuilder struct {
	tracer Tracer
	trace  QueryTrace
	open   bool
	base   PageCounts // counts at the open span's start
	last   PageCounts // counts at the most recent span boundary
}

// Begin starts a trace, or returns nil — the inert builder — when tracer is
// nil.
func Begin(tracer Tracer, method, kind string, lo, hi float64) *TraceBuilder {
	if tracer == nil {
		return nil
	}
	return &TraceBuilder{
		tracer: tracer,
		trace:  QueryTrace{Method: method, Kind: kind, Lo: lo, Hi: hi, Begin: time.Now()},
	}
}

// BeginSpan opens a span for phase ph. now is the query's page-count snapshot
// at the boundary; an already-open span is closed first, so phases need no
// explicit hand-off.
func (b *TraceBuilder) BeginSpan(ph Phase, now PageCounts) {
	if b == nil {
		return
	}
	if b.open {
		b.EndSpan(now)
	}
	b.trace.Spans = append(b.trace.Spans, Span{Phase: ph, Start: time.Since(b.trace.Begin)})
	b.base, b.last, b.open = now, now, true
}

// EndSpan closes the open span, charging it the page activity since its
// BeginSpan.
func (b *TraceBuilder) EndSpan(now PageCounts) {
	if b == nil || !b.open {
		return
	}
	s := &b.trace.Spans[len(b.trace.Spans)-1]
	s.Duration = time.Since(b.trace.Begin) - s.Start
	s.Pages = now.Sub(b.base)
	b.last = now
	b.open = false
}

// Finish completes the trace and hands it to the tracer. A span left open by
// an error path is closed with the counts of the last boundary, so error
// traces may undercount that span's pages (see QueryTrace.IO).
func (b *TraceBuilder) Finish(err error) {
	if b == nil {
		return
	}
	if b.open {
		b.EndSpan(b.last)
	}
	b.trace.Duration = time.Since(b.trace.Begin)
	for _, s := range b.trace.Spans {
		b.trace.IO = b.trace.IO.Add(s.Pages)
	}
	if err != nil {
		b.trace.Err = err.Error()
	}
	b.tracer.TraceQuery(&b.trace)
}

// Collector is a Tracer that retains the most recent traces in a ring — the
// build-it-in default sink for tests, debugging, and the fieldbench demo.
type Collector struct {
	mu     sync.Mutex
	cap    int
	ring   []*QueryTrace
	next   int
	filled bool
	total  int
}

// NewCollector returns a Collector retaining the last n traces (minimum 1).
func NewCollector(n int) *Collector {
	if n < 1 {
		n = 1
	}
	return &Collector{cap: n, ring: make([]*QueryTrace, n)}
}

// TraceQuery implements Tracer.
func (c *Collector) TraceQuery(t *QueryTrace) {
	c.mu.Lock()
	c.ring[c.next] = t
	c.next++
	if c.next == c.cap {
		c.next, c.filled = 0, true
	}
	c.total++
	c.mu.Unlock()
}

// Traces returns the retained traces, oldest first.
func (c *Collector) Traces() []*QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*QueryTrace
	if c.filled {
		out = append(out, c.ring[c.next:]...)
	}
	out = append(out, c.ring[:c.next]...)
	return out
}

// Total returns how many traces the collector has received (including any
// that have fallen out of the ring).
func (c *Collector) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Observer bundles the two observability sinks an index reports to: an
// optional Tracer for per-query spans and an optional Metrics registry. The
// zero value is fully inert.
type Observer struct {
	Tracer  Tracer
	Metrics *Metrics
}
