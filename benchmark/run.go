package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"fielddb"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // how long the measured pass lasts
	trace    bool    // per-layer pass instead of the end-to-end pass
	smoke    bool    // 1/16-area terrains, one set-up: the unit-test scale
	tiled    int     // edge of tiled-stored's terrain; 0 means the default
	outDir   string  // where trace files and temporary index files go
}

// sizing fixes every count a workload is built from, so that counts repeat
// exactly from run to run; only the number of whole rotations a pass gets
// through depends on the clock.
type sizing struct {
	side        int // edge of the 256² workloads' terrain, in cells
	perSel      int // rotation length per selectivity on that terrain
	tiledSide   int // edge of tiled-stored's terrain
	tileSide    int
	tiledPerSel int
	tiledPool   int // buffer pool of the reopened file, in pages
	requests    int // length of the served request list
	setups      int // set-ups per run; the median is reported
	updateRate  int // writer batches per second on live-mixed
}

// tiledSideDefault is tiled-stored's terrain edge. The repo's gated tiled
// rows are measured at 1024, where a query costs 130 ms on this box and a run
// of run_seconds cannot collect the 200 samples a p95 needs; at 512 the same
// pipeline answers in 35 ms. -tiled-side 1024 runs the gated size.
const tiledSideDefault = 512

func (c config) sizing() sizing {
	if c.smoke {
		return sizing{side: 64, perSel: 8, tiledSide: 128, tileSide: 16, tiledPerSel: 4,
			tiledPool: 64, requests: 80, setups: 1, updateRate: 20}
	}
	sz := sizing{side: 256, perSel: 64, tiledSide: tiledSideDefault, tiledPerSel: 16,
		requests: 640, setups: 3, updateRate: 3}
	if c.tiled > 0 {
		sz.tiledSide = c.tiled
	}
	// An 8×8 tile grid, as in the repo's tiled suite, and a pool of one page
	// per 256 cells: an eighth of the saved file.
	sz.tileSide = sz.tiledSide / 8
	sz.tiledPool = sz.tiledSide * sz.tiledSide / 256
	return sz
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	errs              []string // the first few failures, for the log
	// warmPages and warmSimMs are the per-query means of the set-up's
	// warm-up rotation, for the cross-check against BENCH_BASELINE.json.
	warmPages, warmSimMs float64
	notes                []string // sample counts and anything else worth a line
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupTicks is how many kernel runs bracket a set-up on each side.
const setupTicks = 8

// setupStats is what the set-ups of a run measured.
type setupStats struct {
	seconds    float64 // median, at the reference machine speed (calib.go)
	rawSeconds float64 // median, as measured
	heapMiB    float64 // live heap once the last set-up is done
}

// timeSetups runs setup n times, closing every product but the last, and
// returns the last product with what the set-ups measured. Each set-up's
// time is taken at the reference machine speed of the kernel runs around it.
// The heap is read before the caller builds anything of its own.
func timeSetups[T interface{ Close() error }](n int, setup func() (T, error)) (last T, stats setupStats, err error) {
	var times, raws []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := last.Close(); err != nil {
				return last, stats, err
			}
			var zero T
			last = zero
			runtime.GC()
		}
		var cal calibration
		cal.tick(setupTicks)
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, stats, err
		}
		d := time.Since(start).Seconds()
		cal.tick(setupTicks)
		times = append(times, d*cal.factor())
		raws = append(raws, d)
		last = s
	}
	return last, setupStats{median(times), median(raws), liveHeapMiB()}, nil
}

// liveHeapMiB forces a full collection and reports the bytes of live heap
// objects. (HeapInuse, which also counts the free slots of partly used
// spans, moved by 3 % from run to run with nothing changed.)
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memDelta is the allocator and collector activity of one pass.
type memDelta struct {
	mallocs, bytes, gcCycles uint64
	pauseNs                  uint64
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs}
}

func (a *memDelta) add(b memDelta) {
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.gcCycles += b.gcCycles
	a.pauseNs += b.pauseNs
}

// indexFileBytes saves the index to a temporary file under dir and returns
// its size.
func indexFileBytes(db *fielddb.DB, dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, "size-*.fidx")
	if err != nil {
		return 0, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := db.SaveIndex(path); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// valueQuerier is the part of fielddb.Querier the in-process loops call.
type valueQuerier interface {
	ValueQueryContext(ctx context.Context, lo, hi float64) (*fielddb.Result, error)
}

// tracing is what a traced pass adds to a loop: the recorder, and the span
// the engine tracer files the next QueryTrace under (-1: none in flight).
type tracing struct {
	rec *recorder
	cur atomic.Int64
	ops atomic.Int64
}

func newTracing() *tracing {
	t := &tracing{rec: newRecorder()}
	t.cur.Store(-1)
	return t
}

// tracer is the engine hook: every QueryTrace goes under the current root.
func (t *tracing) tracer() fielddb.Tracer {
	return fielddb.TracerFunc(func(qt *fielddb.QueryTrace) { t.rec.engine(int(t.cur.Load()), qt) })
}

// passStats is what one in-process query pass measured.
type passStats struct {
	lat     latencies
	elapsed time.Duration // wall time spent on queries, calibration excluded
	mem     memDelta      // process-wide, calibration excluded
	// Sums over the pass's results.
	pages, seqReads            int64
	simNs                      int64
	candidates                 int64
	cellsFetched, cellsMatched int64
	regions                    int64
}

func (p *passStats) queries() float64 { return float64(len(p.lat)) }

// add folds another pass into p.
func (p *passStats) add(o passStats) {
	p.lat = append(p.lat, o.lat...)
	p.elapsed += o.elapsed
	p.mem.add(o.mem)
	p.pages += o.pages
	p.seqReads += o.seqReads
	p.simNs += o.simNs
	p.candidates += o.candidates
	p.cellsFetched += o.cellsFetched
	p.cellsMatched += o.cellsMatched
	p.regions += o.regions
}

// tracedQuerier is a query surface whose engine tracer can be swapped
// between queries: *fielddb.DB and *fielddb.StoredIndex.
type tracedQuerier interface {
	valueQuerier
	SetTracer(fielddb.Tracer)
}

// alternate runs rot one rotation at a time, untraced and traced in turn,
// until d has passed, so that the two sides of the tracing overhead see the
// same queries under the same conditions. It returns the untraced and the
// traced side.
func alternate(q tracedQuerier, rot []fielddb.Interval, exp []expected, tr *tracing, out *outcome, d time.Duration) (ref, traced passStats) {
	for start := time.Now(); ref.lat == nil || time.Since(start) < d; {
		ref.add(queryPass(q, rot, exp, nil, nil, out, oneRotation))
		q.SetTracer(tr.tracer())
		traced.add(queryPass(q, rot, exp, tr, nil, out, oneRotation))
		q.SetTracer(nil)
	}
	return ref, traced
}

// queryPass runs rot closed-loop on one goroutine, checking every answer
// against exp (unless nil), until done says stop. With cal set, the
// calibration kernel runs between queries (calib.go). done is asked after
// every query; boundary is true when a whole rotation has just finished,
// which is where the single-client workloads stop so that the page counts of
// a pass are those of whole rotations and repeat exactly.
func queryPass(q valueQuerier, rot []fielddb.Interval, exp []expected, tr *tracing, cal *calibration, out *outcome,
	done func(boundary bool, elapsed time.Duration) bool) passStats {
	var ps passStats
	ctx := context.Background()
	mem0 := readMem()
	start := time.Now()
	for i := 0; ; i = (i + 1) % len(rot) {
		iv := rot[i]
		root := -1
		if tr != nil {
			root = tr.rec.begin("fielddb.call", -1, int(tr.ops.Add(1)))
			tr.cur.Store(int64(root))
		}
		t0 := time.Now()
		res, err := q.ValueQueryContext(ctx, iv.Lo, iv.Hi)
		ps.lat = append(ps.lat, time.Since(t0))
		out.attempted++
		if err == nil && exp != nil {
			err = exp[i].check(res)
		}
		if err != nil {
			out.fail(err)
		}
		cells := 0
		if res != nil {
			cells = res.CellsMatched
			ps.pages += int64(res.IO.Reads)
			ps.seqReads += int64(res.IO.SeqReads)
			ps.simNs += int64(res.IO.SimElapsed)
			ps.candidates += int64(res.CandidateGroups)
			ps.cellsFetched += int64(res.CellsFetched)
			ps.cellsMatched += int64(res.CellsMatched)
			ps.regions += int64(len(res.Regions))
		}
		if tr != nil {
			tr.rec.end(root, cells, 0)
		}
		cal.afterQuery(i)
		if done(i == len(rot)-1, time.Since(start)) {
			break
		}
	}
	ps.elapsed = time.Since(start)
	ps.mem = readMem().since(mem0)
	if cal != nil {
		ps.elapsed -= cal.spent
		ps.mem.mallocs -= cal.mallocs()
	}
	return ps
}

// oneRotation stops a pass at the first rotation boundary.
func oneRotation(boundary bool, _ time.Duration) bool { return boundary }

// wholeRotations stops a pass at the first rotation boundary past d.
func wholeRotations(d time.Duration) func(bool, time.Duration) bool {
	return func(boundary bool, elapsed time.Duration) bool { return boundary && elapsed >= d }
}

// timing fills the wall-clock metrics every workload reports, at the
// reference machine speed cal measured, and notes the raw values.
func timing(out *outcome, lat latencies, elapsed time.Duration, cal *calibration) {
	p50, p95, used := lat.tail(95)
	ops := len(lat)
	qps := float64(ops) / elapsed.Seconds()
	f := cal.factor()
	out.metrics["query_p50_ms"] = p50 * f
	out.metrics["query_p95_ms"] = p95 * f
	out.metrics["query_qps"] = qps / f
	out.notef("%d operations in %.2fs; tail percentile p%d", ops, elapsed.Seconds(), used)
	out.notef("as measured: p50 %.4f ms, p%d %.4f ms, %.2f ops/s; machine-speed factor %.3f from %d kernel runs (calib.go)",
		p50, used, p95, qps, f, len(cal.ms))
}

// costs fills the per-query cost metrics from a pass whose counts repeat.
func (p *passStats) costs(out *outcome) {
	n := p.queries()
	out.metrics["pages_per_query"] = float64(p.pages) / n
	out.metrics["simdisk_ms_per_query"] = float64(p.simNs) / 1e6 / n
	out.metrics["allocs_per_query"] = float64(p.mem.mallocs) / n
}

// passLength is the given share of the configured pass length.
func (c config) passLength(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}
