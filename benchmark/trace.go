package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fielddb"
)

// Spans are recorded only from benchmark files, around calls into the
// layers: a root span per operation, the benchmark's own wrappers below it
// (http.client ⊃ serve.handler ⊃ fielddb.call), and under those the phase
// spans of the engine's QueryTrace, received through the public SetTracer
// hook. They stay in memory until the traced pass ends.

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is -1 for an operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pages  int    `json:"pages,omitempty"`
	Cells  int    `json:"cells,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans from any goroutine.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id now and attaches its counts.
func (r *recorder) end(id, cells, bytes int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End, s.Cells, s.Bytes = now, cells, bytes
}

// opOf returns the operation span id belongs to.
func (r *recorder) opOf(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Op
}

// engine files one QueryTrace under span parent: an "engine.<kind>" span
// for the trace as a whole and one child per phase, named after the phase
// and carrying the pages the phase read. A negative parent means no traced
// operation is in flight; the trace is dropped.
func (r *recorder) engine(parent int, t *fielddb.QueryTrace) {
	if parent < 0 {
		return
	}
	begin := int64(t.Begin.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.spans[parent].Op
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: "engine." + t.Kind,
		Start: begin, End: begin + int64(t.Duration), Pages: t.IO.Reads,
	})
	for _, ph := range t.Spans {
		r.spans = append(r.spans, span{
			ID: len(r.spans), Parent: id, Op: op, Name: ph.Phase.String(),
			Start: begin + int64(ph.Start), End: begin + int64(ph.Start+ph.Duration),
			Pages: ph.Pages.Reads,
		})
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children may overlap each other or stick out of
// the parent; covered time is the union of their intervals clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceSummary is what the per-layer rows are computed from.
type traceSummary struct {
	ops, spans int
	// selfNs and pages are summed per span label.
	selfNs map[string]int64
	pages  map[string]int
	// unbalanced counts operations whose spans' self times do not add up to
	// the root span's duration.
	unbalanced int
}

// summarize folds the recorded spans by name.
func (r *recorder) summarize() traceSummary {
	return r.summarizeBy(func(s span) string { return s.Name })
}

// summarizeBy folds the recorded spans by label and checks every
// operation's books: self times of all its spans must sum to its root's
// duration.
func (r *recorder) summarizeBy(label func(span) string) traceSummary {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	sum := traceSummary{spans: len(spans), selfNs: map[string]int64{}, pages: map[string]int{}}
	rootDur := map[int]int64{}
	opSelf := map[int]int64{}
	for _, s := range spans {
		l := label(s)
		sum.selfNs[l] += self[s.ID]
		sum.pages[l] += s.Pages
		opSelf[s.Op] += self[s.ID]
		if s.Parent < 0 {
			rootDur[s.Op] = s.dur()
			sum.ops++
		}
	}
	for op, d := range rootDur {
		if opSelf[op] != d {
			sum.unbalanced++
		}
	}
	return sum
}

// perOpUs is a label's summed self time per operation, in microseconds.
func (t traceSummary) perOpUs(label string, ops int) float64 {
	return ratio(float64(t.selfNs[label])/1e3, float64(ops))
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}
