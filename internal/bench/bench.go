// Package bench reproduces the paper's evaluation (§4): it builds each
// dataset, constructs every index method over it, runs the 200-random-query
// workloads across the Qinterval grid, and reports the average per-query
// execution time series that the paper's figures plot.
//
// Two time measures are reported per point: wall-clock time of the query
// pipeline (the paper's own metric — its experiments ran against a warm OS
// file cache, so times are CPU-bound) and the simulated disk time of the
// storage layer (pages × sequential/random cost), together with page and
// candidate counts.
package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// IndexSpec names one index configuration under test.
type IndexSpec struct {
	Label string
	Build func(field.Field, *storage.Pager) (core.Index, error)
	// ParallelRefine marks the spec whose refinement forks across page runs
	// under SetWorkers: the value-range suite measures it at workers=4 too.
	ParallelRefine bool
}

// Experiment describes one figure of the paper.
type Experiment struct {
	// Name is the figure id, e.g. "fig8a".
	Name string
	// Title is the human-readable caption.
	Title string
	// Dataset builds the field under test.
	Dataset func() (field.Field, error)
	// QIntervals is the relative query-width grid.
	QIntervals []float64
	// Specs are the index configurations compared.
	Specs []IndexSpec
	// Queries is the number of random queries per Qinterval (the paper
	// uses 200).
	Queries int
	// Seed makes the workload deterministic.
	Seed int64
}

// Point is one measured cell of a figure: one method at one Qinterval.
type Point struct {
	QInterval  float64
	WallMs     float64 // avg wall-clock ms per query (paper's axis)
	SimMs      float64 // avg simulated disk ms per query
	Pages      float64 // avg pages read per query
	Candidates float64 // avg cells fetched per query
	Matched    float64 // avg cells matched per query
	Groups     float64 // avg subfields selected per query
}

// Series is the measured curve of one index configuration.
type Series struct {
	Label  string
	Stats  core.IndexStats
	Points []Point
}

// Report is the outcome of one experiment.
type Report struct {
	Experiment Experiment
	Cells      int
	BuildTimes map[string]time.Duration
	Series     []Series
}

// Run executes the experiment. The pager pool of each index is sized to the
// paper's warm-cache setting; each query runs in its own execution context
// whose accounting models a cold start, while still deduping the query's own
// repeated page accesses.
func Run(exp Experiment) (*Report, error) {
	if exp.Queries <= 0 {
		exp.Queries = workload.QueryCount
	}
	f, err := exp.Dataset()
	if err != nil {
		return nil, fmt.Errorf("bench %s: dataset: %w", exp.Name, err)
	}
	rep := &Report{
		Experiment: exp,
		Cells:      f.NumCells(),
		BuildTimes: map[string]time.Duration{},
	}
	vr := f.ValueRange()
	for _, spec := range exp.Specs {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		t0 := time.Now()
		idx, err := spec.Build(f, pager)
		if err != nil {
			return nil, fmt.Errorf("bench %s: building %s: %w", exp.Name, spec.Label, err)
		}
		rep.BuildTimes[spec.Label] = time.Since(t0)
		ser := Series{Label: spec.Label, Stats: idx.Stats()}
		for _, qi := range exp.QIntervals {
			queries := workload.Queries(vr, qi, exp.Queries, exp.Seed+int64(qi*1e6))
			var pt Point
			pt.QInterval = qi
			start := time.Now()
			for _, q := range queries {
				res, err := idx.Query(q)
				if err != nil {
					return nil, fmt.Errorf("bench %s: %s query %v: %w", exp.Name, spec.Label, q, err)
				}
				pt.SimMs += res.IO.SimElapsed.Seconds() * 1e3
				pt.Pages += float64(res.IO.Reads)
				pt.Candidates += float64(res.CellsFetched)
				pt.Matched += float64(res.CellsMatched)
				pt.Groups += float64(res.CandidateGroups)
			}
			wall := time.Since(start).Seconds() * 1e3
			n := float64(len(queries))
			pt.WallMs = wall / n
			pt.SimMs /= n
			pt.Pages /= n
			pt.Candidates /= n
			pt.Matched /= n
			pt.Groups /= n
			ser.Points = append(ser.Points, pt)
		}
		rep.Series = append(rep.Series, ser)
	}
	return rep, nil
}

// SpecsForMethods returns the standard builders for the paper's methods.
func SpecsForMethods(methods ...core.Method) []IndexSpec {
	var out []IndexSpec
	for _, m := range methods {
		out = append(out, buildSpec(string(m), core.BuildOptions{Method: m}))
	}
	return out
}

// buildSpec is the IndexSpec that builds opts through core.Build.
func buildSpec(label string, opts core.BuildOptions) IndexSpec {
	return IndexSpec{Label: label, Build: func(f field.Field, p *storage.Pager) (core.Index, error) {
		return core.Build(context.Background(), f, p, opts)
	}}
}

// Table renders the report as the paper-style series table: one row per
// Qinterval, one column group per method.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%d cells, %d queries/point)\n",
		r.Experiment.Name, r.Experiment.Title, r.Cells, queriesOf(r.Experiment))
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  built %-12s in %-12v %s\n", s.Label, r.BuildTimes[s.Label].Round(time.Millisecond), s.Stats)
	}
	fmt.Fprintf(&b, "\n%-10s", "Qinterval")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " | %-28s", s.Label)
	}
	fmt.Fprintf(&b, "\n%-10s", "")
	for range r.Series {
		fmt.Fprintf(&b, " | %8s %8s %9s", "wall ms", "sim ms", "pages")
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 10+len(r.Series)*31))
	b.WriteByte('\n')
	for pi, qi := range r.Experiment.QIntervals {
		fmt.Fprintf(&b, "%-10.3f", qi)
		for _, s := range r.Series {
			p := s.Points[pi]
			fmt.Fprintf(&b, " | %8.2f %8.2f %9.1f", p.WallMs, p.SimMs, p.Pages)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders every measured point as comma-separated rows with a header.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("experiment,method,qinterval,wall_ms,sim_ms,pages,cells_fetched,cells_matched,groups\n")
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%s,%g,%.4f,%.4f,%.2f,%.2f,%.2f,%.2f\n",
				r.Experiment.Name, s.Label, p.QInterval, p.WallMs, p.SimMs, p.Pages, p.Candidates, p.Matched, p.Groups)
		}
	}
	return b.String()
}

// Speedup returns the ratio of method a's mean metric to method b's over all
// Qintervals, using simulated time when sim is true and wall time otherwise.
func (r *Report) Speedup(a, b string, sim bool) (float64, error) {
	get := func(label string) (float64, error) {
		for _, s := range r.Series {
			if s.Label != label {
				continue
			}
			sum := 0.0
			for _, p := range s.Points {
				if sim {
					sum += p.SimMs
				} else {
					sum += p.WallMs
				}
			}
			return sum / float64(len(s.Points)), nil
		}
		return 0, fmt.Errorf("bench: no series %q", label)
	}
	va, err := get(a)
	if err != nil {
		return 0, err
	}
	vb, err := get(b)
	if err != nil {
		return 0, err
	}
	if vb == 0 {
		return 0, fmt.Errorf("bench: series %q has zero time", b)
	}
	return va / vb, nil
}

// SortSeries orders the report's series by label for stable output.
func (r *Report) SortSeries() {
	sort.Slice(r.Series, func(i, j int) bool { return r.Series[i].Label < r.Series[j].Label })
}

func queriesOf(e Experiment) int {
	if e.Queries > 0 {
		return e.Queries
	}
	return workload.QueryCount
}

// GeoMeanRatio returns the geometric mean over Qintervals of
// series[a].metric / series[b].metric — a scale-robust "who wins by what
// factor" summary.
func (r *Report) GeoMeanRatio(a, b string, sim bool) (float64, error) {
	var sa, sb *Series
	for i := range r.Series {
		if r.Series[i].Label == a {
			sa = &r.Series[i]
		}
		if r.Series[i].Label == b {
			sb = &r.Series[i]
		}
	}
	if sa == nil || sb == nil {
		return 0, fmt.Errorf("bench: missing series %q or %q", a, b)
	}
	prod := 1.0
	n := 0
	for i := range sa.Points {
		va, vb := sa.Points[i].WallMs, sb.Points[i].WallMs
		if sim {
			va, vb = sa.Points[i].SimMs, sb.Points[i].SimMs
		}
		if va <= 0 || vb <= 0 {
			continue
		}
		prod *= va / vb
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("bench: no comparable points")
	}
	return math.Pow(prod, 1/float64(n)), nil
}
