package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// ParallelPoint is one row of the refinement-parallelism table.
type ParallelPoint struct {
	Workers int
	WallMs  float64 // avg wall-clock ms per query
	Speedup float64 // vs Workers == 1
	Reads   int     // per-query page reads (identical across rows)
}

// ParallelReport is the outcome of ParallelSpeedup.
type ParallelReport struct {
	Side    int
	Cells   int
	Queries int
	Points  []ParallelPoint
}

// ParallelSpeedup measures the wall-clock effect of the refinement worker
// pool: it builds one I-Hilbert index over a side×side terrain, then runs
// the same refinement-heavy workload (wide Qinterval, so many subfield runs
// per query) at 1, 2, 4, ... up to maxWorkers workers. Answers are checked
// to be identical across worker counts — parallelism must change only the
// wall clock, never the result or the simulated I/O.
func ParallelSpeedup(side int, maxWorkers, queries int, seed int64) (*ParallelReport, error) {
	if side <= 0 {
		side = 256
	}
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	if queries <= 0 {
		queries = 32
	}
	f, err := FixtureTerrain(side, seed)
	if err != nil {
		return nil, fmt.Errorf("bench parallel: terrain: %w", err)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
	idx, err := core.Build(context.Background(), f, pager, core.BuildOptions{Method: core.MethodIHilbert, Workers: maxWorkers})
	if err != nil {
		return nil, fmt.Errorf("bench parallel: build: %w", err)
	}
	// Wide queries (Qinterval 0.25) select many subfields, so the
	// refinement step dominates and fans out across many cell runs.
	qs := workload.Queries(f.ValueRange(), 0.25, queries, seed)

	rep := &ParallelReport{Side: side, Cells: f.NumCells(), Queries: len(qs)}
	var baseline []*core.Result
	var baseMs float64
	for w := 1; w <= maxWorkers; w *= 2 {
		idx.SetWorkers(w)
		results := make([]*core.Result, len(qs))
		start := time.Now()
		for i, q := range qs {
			res, err := idx.Query(q)
			if err != nil {
				return nil, fmt.Errorf("bench parallel: workers=%d query %v: %w", w, q, err)
			}
			results[i] = res
		}
		wallMs := time.Since(start).Seconds() * 1e3 / float64(len(qs))
		reads := 0
		for i, res := range results {
			reads += res.IO.Reads
			if baseline != nil {
				if err := sameAnswer(baseline[i], res); err != nil {
					return nil, fmt.Errorf("bench parallel: workers=%d query %v: %w", w, qs[i], err)
				}
			}
		}
		if baseline == nil {
			baseline = results
			baseMs = wallMs
		}
		rep.Points = append(rep.Points, ParallelPoint{
			Workers: w,
			WallMs:  wallMs,
			Speedup: baseMs / wallMs,
			Reads:   reads / len(qs),
		})
	}
	return rep, nil
}

// sameAnswer checks that two results of the same query are identical in
// answer geometry, area, counters, and per-query I/O accounting.
func sameAnswer(a, b *core.Result) error {
	if a.IO != b.IO {
		return fmt.Errorf("IO differs: %+v vs %+v", a.IO, b.IO)
	}
	if a.Area != b.Area || a.CellsMatched != b.CellsMatched || a.CellsFetched != b.CellsFetched {
		return fmt.Errorf("answer differs: area %v/%v matched %d/%d fetched %d/%d",
			a.Area, b.Area, a.CellsMatched, b.CellsMatched, a.CellsFetched, b.CellsFetched)
	}
	if len(a.Regions) != len(b.Regions) {
		return fmt.Errorf("region count differs: %d vs %d", len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		if !samePolygon(a.Regions[i], b.Regions[i]) {
			return fmt.Errorf("region %d differs", i)
		}
	}
	return nil
}

func samePolygon(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Table renders the speedup report.
func (r *ParallelReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "refinement parallelism — %d×%d terrain (%d cells), %d wide queries (Qinterval 0.25)\n",
		r.Side, r.Side, r.Cells, r.Queries)
	fmt.Fprintf(&sb, "%8s %12s %10s %12s\n", "workers", "wall ms/qry", "speedup", "reads/qry")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8d %12.3f %9.2fx %12d\n", p.Workers, p.WallMs, p.Speedup, p.Reads)
	}
	return sb.String()
}
