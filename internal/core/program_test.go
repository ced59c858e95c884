package core

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"fielddb/internal/approx"
	"fielddb/internal/field"
	"fielddb/internal/fractal"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/tin"
)

// This file is the engine's correctness harness. A program is a list of steps
// — value, measure, batch, aggregate, approximate and point queries, update
// batches, snapshots and their Close, a save and reopen, a scratch rebuild —
// run on one engine configuration and on a model of it: a copy of the field
// that the harness mutates itself, and a brute-force oracle that tests every
// cell of the copy and folds the matching ones in a scan's order. After every
// step the harness checks what the engine promises:
//
//   - each answer is the oracle's: byte for byte where the configuration folds
//     in the oracle's order — cell ids, tile by tile on a tiled store —, as
//     the same sets of regions and isolines — and the same areas up to
//     summation order — where it folds in heap order;
//   - a query at one worker and at four gives the same Result, bit for bit;
//   - a measure is the geometry answer with its geometry cleared;
//   - each batch member is its solo call, I/O included;
//   - every open snapshot still gives the Results it gave when acquired, and an
//     update retires exactly the epochs no open snapshot pins;
//   - after an update batch, every tree readers search is a valid R*-tree on
//     its pages whose entries are exactly its subfields' — or, for I-All, its
//     cells' — intervals, and a refitted summary is the one a build fits;
//   - a saved and reopened store gives the same Results, and still does once
//     the next update batch is applied to both;
//   - a saved file keeps the bytes it was saved with, whatever the store opened
//     from it goes through, and still opens once the program ends;
//   - the pagers' totals move by exactly the statistics the calls published.
//
// FuzzEngineProgram decodes programs from bytes. Its seed corpus is one
// program per field and buildable row of the build matrix, plus a few aimed
// at how the parallel refinement cuts page runs into blocks, and runs under
// plain go test; the named tests at the end of the file run short programs
// aimed at one invariant each.

// op is what a step does. Its three parameter bytes mean, per op:
//
//	query, measure, approx  a, b: the value interval (see interval)
//	batch                   a: 2 + a%5 members; b, c: their intervals and sinks
//	aggregate               a, b: the interval; c: the tolerance, maxErrs[c%4]
//	point                   a, b: the point (see point); an odd c puts it on
//	                        the lattice of 240ths of the bounds instead (see
//	                        latticePoint): on a DEM's cell edges and corners,
//	                        its far boundary and just past it
//	update                  a: 1 + a%12 samples; b, c: which, and their values
//	                        (an odd c only nudges them; c%4 == 3 adds a sample
//	                        the field does not have)
//	snapshot                a, b: a probe interval; b, c: a probe point
//	close                   a: which open snapshot
//	reopen, rebuild         a, b: a probe interval
type op byte

const (
	opQuery op = iota
	opMeasure
	opBatch
	opAggregate
	opApprox
	opPoint
	opUpdate
	opSnapshot
	opClose
	opReopen
	opRebuild
	numOps
)

var opNames = [numOps]string{"query", "measure", "batch", "aggregate", "approx", "point",
	"update", "snapshot", "close", "reopen", "rebuild"}

// maxErrs are the tolerances an aggregate step asks for: exact, one the summary
// rarely certifies, a loose one and any.
var maxErrs = [4]float64{0, 1e-12, 0.05, math.Inf(1)}

// step is one program step.
type step struct {
	op      op
	a, b, c byte
}

// maxSteps bounds a decoded program.
const maxSteps = 32

// program is a decoded input: the index of the configuration it runs on and
// its steps.
type program struct {
	cfg   int
	steps []step
}

// decodeProgram reads a program from fuzz input: the first byte picks the
// configuration, each four after it are a step, and a short tail — or what
// lies past maxSteps — is ignored.
func decodeProgram(data []byte) program {
	var p program
	if len(data) == 0 {
		return p
	}
	p.cfg = int(data[0]) % len(harnessConfigs())
	for data = data[1:]; len(data) >= 4 && len(p.steps) < maxSteps; data = data[4:] {
		p.steps = append(p.steps, step{op(data[0]) % numOps, data[1], data[2], data[3]})
	}
	return p
}

func (p program) encode() []byte {
	out := []byte{byte(p.cfg)}
	for _, s := range p.steps {
		out = append(out, byte(s.op), s.a, s.b, s.c)
	}
	return out
}

// harnessField is a field programs run over, at its build-time values, and the
// way to copy it: each engine mutates the copy it was given, the model its own.
type harnessField struct {
	name  string
	f     field.Mutable
	clone func(field.Mutable) field.Mutable
}

// harnessConfig is what a program builds: a field and a row of its build
// matrix.
type harnessConfig struct {
	hf  *harnessField
	row matrixRow
}

// harnessFields are a DEM of 24 × 20 cells of 0.7 × 1.3 — 16-cell tiles cut it
// unevenly, a locator that swaps its axes misses cells, and some of
// latticePoint's grid-line points round an ulp off their lines — and a TIN of
// 300 points, whose cells differ in area. Both are built once.
var harnessFields = sync.OnceValue(func() []*harnessField {
	const nx, ny = 24, 20
	heights, err := fractal.DiamondSquare(32, 0.7, 1234)
	mustHarness(err)
	fractal.Normalize(heights, 0, 100)
	var crop []float64
	for r := 0; r <= ny; r++ {
		crop = append(crop, heights[r*33:r*33+nx+1]...)
	}
	dem := func(h []float64) field.Mutable {
		d, err := grid.New(geom.Pt(0, 0), 0.7, 1.3, nx, ny, h)
		mustHarness(err)
		return d
	}

	rng := rand.New(rand.NewSource(55))
	pts := make([]geom.Point, 300)
	vals := make([]float64, len(pts))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		vals[i] = 50 + 30*math.Sin(pts[i].X/15)*math.Cos(pts[i].Y/15) + rng.NormFloat64()
	}
	tris, err := tin.Delaunay(pts)
	mustHarness(err)
	// Delaunay hands its triangles over in map order: number them by content,
	// so a program meets the same cell ids in every run.
	for i, tr := range tris {
		k := slices.Index(tr[:], slices.Min(tr[:]))
		tris[i] = tin.Triangle{tr[k], tr[(k+1)%3], tr[(k+2)%3]}
	}
	slices.SortFunc(tris, func(a, b tin.Triangle) int { return slices.Compare(a[:], b[:]) })
	mesh := func(v []float64) field.Mutable {
		tn, err := tin.New(pts, v, tris)
		mustHarness(err)
		return tn
	}

	samples := func(f field.Mutable) []float64 {
		out := make([]float64, f.NumSamples())
		for i := range out {
			out[i] = f.SampleValue(i)
		}
		return out
	}
	return []*harnessField{
		{name: "dem", f: dem(crop), clone: func(f field.Mutable) field.Mutable { return dem(samples(f)) }},
		{name: "tin", f: mesh(vals), clone: func(f field.Mutable) field.Mutable { return mesh(samples(f)) }},
	}
})

func mustHarness(err error) {
	if err != nil {
		panic(err)
	}
}

// harnessConfigs lists every field × buildable row, the configurations a fuzz
// input's first byte picks from.
var harnessConfigs = sync.OnceValue(func() []harnessConfig {
	var out []harnessConfig
	for _, hf := range harnessFields() {
		for _, row := range buildMatrix(hf.f) {
			if row.buildable() {
				out = append(out, harnessConfig{hf, row})
			}
		}
	}
	return out
})

// live is a store the program queries: the handle, the field it updates, and
// whether it was opened from a file.
type live struct {
	eng    *engine
	f      field.Mutable
	opened bool
}

// pinnedSnap is an open (or closed, not yet retired) snapshot with what it
// answered when acquired: a value query, a measure of the whole value range, a
// point query and an aggregate, which its pinned summary pages answer.
type pinnedSnap struct {
	eng   Engine
	st    *store
	epoch uint64
	batch []BatchQuery
	res   []*Result
	pt    geom.Point
	w     float64
	wIO   storage.Stats
	wErr  bool
	agg   *AggregateResult
}

// harness is one program's run.
type harness struct {
	t     *testing.T
	cfg   harnessConfig
	model field.Mutable
	// order is the order the oracle folds the model's cells in.
	order []field.CellID
	cur   live
	// twin is the store a reopen replaced, until the next update step applies
	// the batch to both and compares them.
	twin *live
	// loc answers point steps: a DEM's grid locator, a TIN's R*-tree.
	loc    pointLocator
	snaps  []*pinnedSnap
	closed []*pinnedSnap
	// low is each store's compaction low-water mark, as the model of its pins
	// predicts it.
	low map[*store]uint64
	// pagers are every pager the program has read through; pub is what the
	// calls of the current step published to them.
	pagers []*storage.Pager
	pub    storage.Stats
	opened []Engine // file-backed stores, closed at the end
	// saved maps every file a reopen step saved to the hash of its bytes then.
	saved map[string][sha256.Size]byte
	dir   string
	log   []string
}

// runProgram builds cfg and runs steps on it and on the model, failing t at
// the first broken invariant with the program as far as it ran.
func runProgram(t *testing.T, cfg harnessConfig, steps []step) {
	// Four idle cores, so that a query at four workers cuts up to four blocks
	// on any machine.
	atLeastProcs(t, 4)
	h := &harness{t: t, cfg: cfg, model: cfg.hf.clone(cfg.hf.f), low: map[*store]uint64{},
		saved: map[string][sha256.Size]byte{}, dir: t.TempDir()}
	h.order = foldOrder(h.model, cfg.row.opts.TileSide)
	h.log = append(h.log, cfg.hf.name+"/"+cfg.row.name)
	defer h.finish()
	f := cfg.hf.clone(cfg.hf.f)
	eng, err := buildIx(f, newPager(), cfg.row.opts)
	if err != nil {
		t.Fatal(err)
	}
	h.cur = live{eng: eng, f: f}
	h.low[eng.store] = eng.Epoch()
	h.pagers = append(h.pagers, eng.pager)
	if g := eng.GridLocator(); g != nil {
		h.loc = g
	} else {
		sp, err := BuildSpatial(f, newPager())
		if err != nil {
			t.Fatal(err)
		}
		h.loc = sp
		h.pagers = append(h.pagers, sp.pager)
	}
	if _, isGrid := f.(Gridded); isGrid != (eng.GridLocator() != nil) {
		t.Fatalf("a %T builds a store with grid locator %v", f, eng.GridLocator())
	}
	for i, s := range steps {
		h.step(i, s)
	}
	h.checkSaved()
}

// checkSaved holds every file the program saved to the bytes it was saved
// with — the updates applied to a store opened from it never write into it —
// and reopens each.
func (h *harness) checkSaved() {
	for path, sum := range h.saved {
		data, err := os.ReadFile(path)
		if err != nil {
			h.fatalf("saved file: %v", err)
		}
		if sha256.Sum256(data) != sum {
			h.fatalf("%s changed after it was saved", filepath.Base(path))
		}
		e, err := Open(path, 0)
		if err != nil {
			h.fatalf("reopen after the program: %v", err)
		}
		e.Close()
	}
}

// finish closes what the program opened and, when it failed, logs the program
// as it ran — the step that failed last.
func (h *harness) finish() {
	r := recover()
	for _, p := range h.snaps {
		p.eng.Close()
	}
	for _, e := range h.opened {
		e.Close()
	}
	if r != nil || h.t.Failed() {
		h.t.Logf("program:\n%s", strings.Join(h.log, "\n"))
	}
	if r != nil {
		panic(r)
	}
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf(format, args...)
}

func (h *harness) logf(i int, format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf("%3d %s", i, fmt.Sprintf(format, args...)))
}

// totals sums every pager's totals.
func (h *harness) totals() storage.Stats {
	var sum storage.Stats
	for _, p := range h.pagers {
		sum = sum.Add(p.Stats())
	}
	return sum
}

// interval maps two parameter bytes onto a query over vr: a puts the lower end
// anywhere from a tenth of the range below it to a tenth above, b sets the
// width — zero, an isoline query, at 0, and a superset of the range at 255.
func interval(vr geom.Interval, a, b byte) geom.Interval {
	l := vr.Length()
	if b == 255 {
		return geom.Interval{Lo: vr.Lo - l/10, Hi: vr.Hi + l/10}
	}
	lo := vr.Lo + l*(float64(a)/255*1.2-0.1)
	return geom.Interval{Lo: lo, Hi: lo + l/2*math.Pow(float64(b)/255, 2)}
}

// point maps two parameter bytes onto a point inside the field's bounds — or,
// with a at 255, outside them.
func (h *harness) point(a, b byte) geom.Point {
	r := h.cfg.hf.f.Bounds()
	if a == 255 {
		return geom.Pt(r.Min.X-1, r.Min.Y-1)
	}
	return geom.Pt(r.Min.X+r.Width()*(float64(a)+0.5)/255, r.Min.Y+r.Height()*(float64(b)+0.5)/256)
}

// latticePoint maps two parameter bytes onto the lattice of 240ths of the
// field's bounds: on the harness DEM's 24 × 20 cells a multiple of 10 in a, or
// of 12 in b, is a grid line — both, a corner —, 240 the far boundary and
// anything above it outside.
func (h *harness) latticePoint(a, b byte) geom.Point {
	r := h.cfg.hf.f.Bounds()
	return geom.Pt(r.Min.X+r.Width()*float64(a)/240, r.Min.Y+r.Height()*float64(b)/240)
}

func (h *harness) step(i int, s step) {
	h.pub = storage.Stats{}
	before := h.totals()
	vr := h.model.ValueRange()
	switch s.op {
	case opQuery, opMeasure:
		q := interval(vr, s.a, s.b)
		h.logf(i, "%s %v", opNames[s.op], q)
		geo := h.value(h.cur.eng, q, false, true)
		h.checkAnswer(geo, false)
		if s.op == opMeasure {
			sameMeasure(h.t, "measure", h.value(h.cur.eng, q, true, true), geo)
		}
	case opBatch:
		h.batch(i, vr, s)
	case opAggregate:
		q, maxErr := interval(vr, s.a, s.b), maxErrs[s.c%4]
		h.logf(i, "aggregate %v max_err %g", q, maxErr)
		h.aggregate(q, maxErr)
	case opApprox:
		q := interval(vr, s.a, s.b)
		h.logf(i, "approx %v", q)
		h.approx(q)
	case opPoint:
		pt := h.point(s.a, s.b)
		if s.c%2 == 1 {
			pt = h.latticePoint(s.a, s.b)
		}
		h.logf(i, "point %v", pt)
		h.pointStep(pt)
	case opUpdate:
		h.update(i, vr, s)
	case opSnapshot:
		h.snapshot(i, vr, s)
	case opClose:
		if len(h.snaps) == 0 {
			h.logf(i, "close (no snapshot open)")
			break
		}
		j := int(s.a) % len(h.snaps)
		h.logf(i, "close snapshot at epoch %d", h.snaps[j].epoch)
		h.closeSnap(j)
	case opReopen:
		h.reopen(i, interval(vr, s.a, s.b))
	case opRebuild:
		h.rebuild(i, interval(vr, s.a, s.b))
	}
	h.checkSnaps()
	if got := h.totals().Sub(before); got != h.pub {
		h.fatalf("the pagers' totals moved by %v, the calls published %v", got, h.pub)
	}
}

// value runs one value query on e and publishes its I/O; with both, it runs it
// at one worker and at four, which must answer the same bit for bit.
func (h *harness) value(e Engine, q geom.Interval, measure, both bool) *Result {
	h.t.Helper()
	call := func() *Result {
		h.t.Helper()
		res, err := e.(*engine).query(context.Background(), q, measure, e.(*engine).workers)
		if err != nil {
			h.fatalf("%v: %v", q, err)
		}
		h.pub = h.pub.Add(res.IO)
		return res
	}
	if !both {
		return call()
	}
	return atWorkers(h, e, call)
}

// atWorkers runs call at one worker and at four and returns its answer, which
// must be the same either way.
func atWorkers[T any](h *harness, e Engine, call func() T) T {
	h.t.Helper()
	defer e.SetWorkers(e.(*engine).workers)
	e.SetWorkers(1)
	one := call()
	e.SetWorkers(4)
	four := call()
	if !reflect.DeepEqual(one, four) {
		h.fatalf("workers 1 and 4 answer differently:\n%s\n%s", brief(one), brief(four))
	}
	return one
}

// brief prints an answer without its geometry.
func brief(v any) string {
	if r, ok := v.(*Result); ok {
		v = withoutGeometry(r)
	}
	return fmt.Sprintf("%+v", v)
}

// oracle is the model's answer to q: every cell of the field copy tested, the
// matching ones folded in the order a scan of the configuration folds them.
func (h *harness) oracle(q geom.Interval) *Result { return foldIn(h.model, h.order, q) }

// foldOrder is the order a scan folds f's cells in: ids 0..n-1 untiled, and
// tile by tile — each tile's ids ascending, as tileLayout cuts them — in
// side-cell tiles.
func foldOrder(f field.Field, side int) []field.CellID {
	if side != 0 {
		return slices.Concat(tileLayout(f, side)...)
	}
	order := make([]field.CellID, f.NumCells())
	for id := range order {
		order[id] = field.CellID(id)
	}
	return order
}

// foldIn is the answer to q of a scan that tests every cell of f and folds the
// matching ones in order.
func foldIn(f field.Field, order []field.CellID, q geom.Interval) *Result {
	rs := resultSink{res: &Result{Query: q, CellsFetched: len(order)}}
	var c field.Cell
	for _, id := range order {
		f.Cell(id, &c)
		if c.Interval().Intersects(q) {
			rs.estimateMatched(&c)
		}
	}
	return rs.res
}

// checkAnswer compares got with the oracle: the counts, then — byte for byte
// on a natural-order row, as sets on a heap-order one — the areas and, unless
// got is a measure, the regions and isolines. The oracle shares the
// engine's clip kernel, so the area is also held to bruteForce's, which clips
// with field.Band.
func (h *harness) checkAnswer(got *Result, measure bool) {
	h.t.Helper()
	if ids, area := bruteForce(h.model, got.Query); len(ids) != got.CellsMatched || math.Abs(got.Area-area) > 1e-6*(1+area) {
		h.fatalf("%v: %d cells, area %v; field.Band clips %d cells to %v", got.Query, got.CellsMatched, got.Area, len(ids), area)
	}
	want := h.oracle(got.Query)
	if !h.cfg.row.natural {
		if d := setDiff(got, want, measure); d != "" {
			h.fatalf("%v: %s, the engine's against the oracle's", got.Query, d)
		}
		return
	}
	if got.CellsMatched != want.CellsMatched || got.RegionCount != want.RegionCount || got.IsolineCount != want.IsolineCount {
		h.fatalf("%v: %d cells, %d regions, %d isolines; the oracle %d, %d, %d", got.Query,
			got.CellsMatched, got.RegionCount, got.IsolineCount, want.CellsMatched, want.RegionCount, want.IsolineCount)
	}
	if got.Area != want.Area || got.MatchedCellArea != want.MatchedCellArea {
		h.fatalf("%v: area %v, matched %v; the oracle %v, %v", got.Query, got.Area, got.MatchedCellArea, want.Area, want.MatchedCellArea)
	}
	if !measure && (!reflect.DeepEqual(got.Regions, want.Regions) || !reflect.DeepEqual(got.Isolines, want.Isolines)) {
		h.fatalf("%v: geometry not byte-identical to the oracle's", got.Query)
	}
}

// setDiff compares two answers that fold the same cells in different orders:
// the counts, the areas up to summation order and, unless measure, the regions
// and isolines as sets. It returns "" where they agree, else what differs.
func setDiff(got, want *Result, measure bool) string {
	switch {
	case got.CellsMatched != want.CellsMatched || got.RegionCount != want.RegionCount || got.IsolineCount != want.IsolineCount:
		return fmt.Sprintf("cells, regions, isolines %d, %d, %d against %d, %d, %d",
			got.CellsMatched, got.RegionCount, got.IsolineCount, want.CellsMatched, want.RegionCount, want.IsolineCount)
	case !near(got.Area, want.Area) || !near(got.MatchedCellArea, want.MatchedCellArea):
		return fmt.Sprintf("area, matched %v, %v against %v, %v", got.Area, got.MatchedCellArea, want.Area, want.MatchedCellArea)
	case !measure && !reflect.DeepEqual(sortedRegions(got), sortedRegions(want)):
		return "region sets differ"
	case !measure && !reflect.DeepEqual(sortedIsolines(got), sortedIsolines(want)):
		return "isoline sets differ"
	}
	return ""
}

// near reports whether two sums of the same terms agree up to summation order.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// sortedRegions returns the answer regions in a canonical order, so answers
// folded in different cell orders compare as sets.
func sortedRegions(res *Result) []geom.Polygon {
	out := append([]geom.Polygon(nil), res.Regions...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k].X < b[k].X || (a[k].X == b[k].X && a[k].Y < b[k].Y)
			}
		}
		return len(a) < len(b)
	})
	return out
}

// sortedIsolines returns the answer segments in a canonical order, as
// sortedRegions does the regions.
func sortedIsolines(res *Result) [][2]geom.Point {
	out := slices.Clone(res.Isolines)
	slices.SortFunc(out, func(a, b [2]geom.Point) int {
		return cmp.Or(cmp.Compare(a[0].X, b[0].X), cmp.Compare(a[0].Y, b[0].Y), cmp.Compare(a[1].X, b[1].X), cmp.Compare(a[1].Y, b[1].Y))
	})
	return out
}

// withoutGeometry is r as the measure sink answers it: a copy with Regions and
// Isolines cleared.
func withoutGeometry(r *Result) *Result {
	m := *r
	m.Regions, m.Isolines = nil, nil
	return &m
}

// sameMeasure asserts that got is want without its geometry, Area and
// MatchedCellArea bit for bit, and that want's counts are its geometry's.
func sameMeasure(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if want.RegionCount != len(want.Regions) || want.IsolineCount != len(want.Isolines) {
		t.Fatalf("%s: geometry result counts %d regions, %d isolines; holds %d, %d", label,
			want.RegionCount, want.IsolineCount, len(want.Regions), len(want.Isolines))
	}
	if got.Regions != nil || got.Isolines != nil {
		t.Fatalf("%s: measure result holds %d regions, %d isolines", label, len(got.Regions), len(got.Isolines))
	}
	if math.Float64bits(got.Area) != math.Float64bits(want.Area) ||
		math.Float64bits(got.MatchedCellArea) != math.Float64bits(want.MatchedCellArea) {
		t.Fatalf("%s: measured area %v / %v, geometry %v / %v", label, got.Area, got.MatchedCellArea, want.Area, want.MatchedCellArea)
	}
	if !reflect.DeepEqual(got, withoutGeometry(want)) {
		t.Fatalf("%s: measured %+v, geometry %+v", label, withoutGeometry(got), withoutGeometry(want))
	}
}

// batch runs members mixing geometry and measure on the live store: each must
// answer as its solo call, I/O included, and the batch's accounting planes
// reconcile.
func (h *harness) batch(i int, vr geom.Interval, s step) {
	rng := rand.New(rand.NewSource(int64(s.b)<<8 | int64(s.c)))
	members := make([]BatchQuery, 2+int(s.a)%5)
	var desc []string
	for j := range members {
		members[j] = BatchQuery{Query: interval(vr, byte(rng.Intn(256)), byte(rng.Intn(256))), Measure: rng.Intn(2) == 1}
		desc = append(desc, fmt.Sprintf("%v measure=%v", members[j].Query, members[j].Measure))
	}
	h.logf(i, "batch %s", strings.Join(desc, ", "))
	results, st := h.cur.eng.QueryBatch(members)
	for j, r := range results {
		if r.Err != nil {
			h.fatalf("batch member %d: %v", j, r.Err)
		}
		h.pub = h.pub.Add(r.Res.IO)
	}
	checkBatchStats(h.t, st, results)
	for j, m := range members {
		if solo := h.value(h.cur.eng, m.Query, m.Measure, false); !reflect.DeepEqual(results[j].Res, solo) {
			h.fatalf("batch member %d: %s, solo %s", j, brief(results[j].Res), brief(solo))
		}
	}
}

// aggregate checks an aggregate answer: within its certified bounds of the
// oracle's count and area, or — where it fell back to the exact pipeline —
// exactly the measure query's, with the summary probe's I/O in front.
func (h *harness) aggregate(q geom.Interval, maxErr float64) {
	e := h.cur.eng
	res := atWorkers(h, e, func() *AggregateResult { return h.aggregateAt(e, q, maxErr) })
	want := h.oracle(q)
	if !res.Fallback {
		checkCertified(h.t, "aggregate", res, want.CellsMatched, want.MatchedCellArea)
		return
	}
	geo := h.value(e, q, true, false)
	h.checkAnswer(geo, true)
	var probe storage.Stats
	if e.sumPages > 0 {
		probe = h.aggregateAt(e, q, math.Inf(1)).IO
	}
	exact := exactToResult(q, maxErr, geo, e.cells, res.TotalArea)
	exact.TotalCells, exact.Fallback, exact.IO = res.TotalCells, true, probe.Add(geo.IO)
	if !reflect.DeepEqual(res, exact) {
		h.fatalf("aggregate %v fell back to %+v, the measure pipeline gives %+v", q, res, exact)
	}
}

// aggregateAt runs one aggregate query on e and publishes its I/O.
func (h *harness) aggregateAt(e Engine, q geom.Interval, maxErr float64) *AggregateResult {
	h.t.Helper()
	res, err := e.AggregateContext(context.Background(), q, maxErr)
	if err != nil {
		h.fatalf("aggregate %v: %v", q, err)
	}
	h.pub = h.pub.Add(res.IO)
	return res
}

// approx checks an approximate query against the subfields the store reports,
// each of which must hold the hull of its cells' current intervals; a store
// without subfields refuses with ErrNoPartition.
func (h *harness) approx(q geom.Interval) {
	e := h.cur.eng
	res, err := e.ApproxQueryContext(context.Background(), q)
	if e.grouped() == nil {
		if !errors.Is(err, ErrNoPartition) {
			h.fatalf("approx on a store without subfields: %v", err)
		}
		return
	}
	if err != nil {
		h.fatalf("approx %v: %v", q, err)
	}
	h.pub = h.pub.Add(res.IO)
	groups, cells, total, sum := 0, 0, 0, 0.0
	var c field.Cell
	e.ForEachGroup(func(gi int, iv geom.Interval, ids []field.CellID) bool {
		hull, mid := geom.EmptyInterval(), 0.0
		for _, id := range ids {
			civ := h.model.Cell(id, &c).Interval()
			hull, mid = hull.Union(civ), mid+(civ.Lo+civ.Hi)/2
		}
		if hull != iv {
			h.fatalf("subfield %d holds interval %v, its cells span %v", gi, iv, hull)
		}
		total += len(ids)
		if iv.Intersects(q) {
			groups, cells, sum = groups+1, cells+len(ids), sum+mid
		}
		return true
	})
	avg := math.NaN()
	if cells > 0 {
		avg = sum / float64(cells)
	}
	if total != h.model.NumCells() || res.Groups != groups || res.CellsUpperBound != cells ||
		!(near(res.AvgValue, avg) || math.IsNaN(res.AvgValue) && math.IsNaN(avg)) {
		h.fatalf("approx %v: %d subfields, %d cells, avg %v; the %d-cell partition gives %d, %d, %v",
			q, res.Groups, res.CellsUpperBound, res.AvgValue, total, groups, cells, avg)
	}
}

// pointLocator is what answers a point step: a *GridLocator or a
// *SpatialIndex.
type pointLocator interface {
	PointQueryContext(ctx context.Context, cells Engine, pt geom.Point) (float64, storage.Stats, error)
}

// pointStep checks a point query on the live store against the model: the
// answer is pointOracle's — bit for bit on a DEM, which reads at most two
// pages, its filter none. A store opened from a file answers through the
// locator its catalog gives it too: a DEM's the same, read for read; a TIN's
// file carries none.
func (h *harness) pointStep(pt geom.Point) {
	w, st, bad := h.pointQuery(h.cur.eng, pt)
	want, ok := h.pointOracle(pt)
	if bad == ok || ok && !near(w, want) {
		h.fatalf("point %v: %v (failed %v); the model %v (answerable %v)", pt, w, bad, want, ok)
	}
	// The grid's candidates come in id order: its answer is the oracle's cell's.
	_, isGrid := h.loc.(*GridLocator)
	if isGrid && (st.Reads > 2 || math.Float64bits(w) != math.Float64bits(want)) {
		h.fatalf("point %v on a grid: %v in %d pages; the model %v", pt, w, st.Reads, want)
	}
	if !h.cur.opened {
		return
	}
	g := h.cur.eng.GridLocator()
	if (g != nil) != isGrid {
		h.fatalf("a store opened from the %s's file has grid locator %v", h.cfg.hf.name, g)
	}
	if g == nil {
		return
	}
	sw, sst, err := g.PointQueryContext(context.Background(), h.cur.eng, pt)
	h.pub = h.pub.Add(sst)
	if sw != w || sst != st || (err != nil) != bad {
		h.fatalf("point %v: the opened store's own locator answers %v in %v (%v), the built one's %v in %v", pt, sw, sst, err, w, st)
	}
}

// pointQuery asks the locator for the value at pt through e, publishing its
// I/O, which counts on an error too; it reports whether the query failed.
func (h *harness) pointQuery(e Engine, pt geom.Point) (float64, storage.Stats, bool) {
	w, st, err := h.loc.PointQueryContext(context.Background(), e, pt)
	h.pub = h.pub.Add(st)
	return w, st, err != nil
}

// pointOracle is the model's value at pt: the first cell, in id order, whose
// bounds hold pt and whose interpolant reaches it — the engine's rule over
// either locator's candidates — or false outside the field.
func (h *harness) pointOracle(pt geom.Point) (float64, bool) {
	var c field.Cell
	for id := 0; id < h.model.NumCells(); id++ {
		h.model.Cell(field.CellID(id), &c)
		if c.Bounds().ContainsPoint(pt) {
			if w, ok := field.Interpolate(&c, pt); ok {
				return w, true
			}
		}
	}
	return 0, false
}

// update applies a batch to the live store, the model and — when a reopen
// left one — the twin, which must then answer as the live store does.
func (h *harness) update(i int, vr geom.Interval, s step) {
	rng := rand.New(rand.NewSource(int64(s.b)<<8 | int64(s.c)))
	ups := make([]SampleUpdate, 1+int(s.a)%12)
	l := vr.Length()
	for j := range ups {
		smp := rng.Intn(h.model.NumSamples())
		v := h.model.SampleValue(smp) + rng.NormFloat64()*l/100
		switch {
		case s.c%2 == 1: // a nudge: subfield boundaries tend to stay put
		case j%4 == 0: // past the top: the value ranges widen
			v = vr.Hi + l/20*(1+rng.Float64())
		case j%4 == 2: // to the far end of the range
			v = vr.Lo + vr.Hi - h.model.SampleValue(smp)
		}
		ups[j] = SampleUpdate{Sample: smp, Value: v}
	}
	if s.c%4 == 3 { // a sample the field does not have: the batch is refused
		ups = append(ups, SampleUpdate{Sample: h.model.NumSamples() + int(s.a), Value: vr.Lo})
	}
	h.logf(i, "update %v", ups)
	applied := h.apply(&h.cur, ups)
	if applied {
		for _, u := range ups {
			mustHarness(h.model.SetSample(u.Sample, u.Value))
		}
		h.checkMaintained(&h.cur)
	}
	h.sameSamples(h.cur.f)
	defer h.retire()
	tw := h.twin
	if tw == nil {
		return
	}
	h.twin = nil
	if h.apply(tw, ups) {
		h.checkMaintained(tw)
	}
	vr = h.model.ValueRange()
	for _, q := range []geom.Interval{interval(vr, s.b, s.c), vr} {
		// Each store persisted its maintained tree on pages of its own.
		a, b := *h.value(h.cur.eng, q, false, false), *h.value(tw.eng, q, false, false)
		a.IO, b.IO = storage.Stats{}, storage.Stats{}
		if !reflect.DeepEqual(a, b) {
			h.fatalf("%v after the batch: the reopened store answers %s, its twin %s", q, brief(&a), brief(&b))
		}
	}
}

// apply runs one batch on l, checking it commits as the next epoch and retires
// what the pins allow — or that the store refuses it, where the model says it
// must, leaving everything as it was. It reports whether the batch committed.
func (h *harness) apply(l *live, ups []SampleUpdate) bool {
	var refusal error
	if ups[len(ups)-1].Sample >= h.model.NumSamples() {
		refusal = ErrOutsideField
	}
	epoch := l.eng.Epoch()
	res, err := l.eng.ApplyUpdates(context.Background(), l.f, ups)
	if refusal != nil {
		if !errors.Is(err, refusal) || l.eng.Epoch() != epoch {
			h.fatalf("update: err %v at epoch %d, want %v at %d", err, l.eng.Epoch(), refusal, epoch)
		}
		return false
	}
	if err != nil {
		h.fatalf("update: %v", err)
	}
	h.pub = h.pub.Add(res.IO)
	minPin := res.Epoch
	for _, p := range h.snaps {
		if p.st == l.eng.store {
			minPin = min(minPin, p.epoch)
		}
	}
	retired := uint64(0)
	if low := h.low[l.eng.store]; minPin > low {
		retired, h.low[l.eng.store] = minPin-low, minPin
	}
	if res.Epoch != epoch+1 || res.SamplesApplied != len(ups) || res.EpochsRetired != retired {
		h.fatalf("update committed epoch %d (from %d), %d samples, retired %d; want %d, %d, %d",
			res.Epoch, epoch, res.SamplesApplied, res.EpochsRetired, epoch+1, len(ups), retired)
	}
	return true
}

// checkMaintained checks what an update batch left of l's index against the
// model, rather than trusting the patch: every curve-ordered partition's
// interval column — built, or hydrated from the heap records of a file — is
// the model's cells' intervals, bit for bit; every partition's tree, as
// readers find it — hydrated from its persisted pages —, passes
// CheckInvariants and holds exactly the entries (groups[gi].interval, gi) of
// its subfields, or (interval, id) of every cell where the tree is I-All's;
// and a store that refits its summary holds, on its summary pages, byte for
// byte what approx.Build fits from scratch to the model's intervals and areas.
// The page reads are charged to a context that publishes nothing.
func (h *harness) checkMaintained(l *live) {
	st := l.eng.snap.Load()
	qc := l.eng.pager.BeginQuery()
	defer qc.Release()
	var c field.Cell
	for pi, p := range l.eng.parts {
		for pos, id := range p.order[:len(p.ivs)] { // a file's untouched tile hydrates none
			if p.ids != nil {
				id = p.ids[id]
			}
			got, want := p.ivs[pos], h.model.Cell(id, &c).Interval()
			if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) || math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
				h.fatalf("partition %d keeps %v at position %d, the model's cell %d %v", pi, got, pos, id, want)
			}
		}
	}
	for pi, ps := range st.parts {
		if ps.tree == nil {
			continue
		}
		paged, err := rstar.OpenPaged(l.eng.pager, ps.tree.RootPage(), 1, rstar.Params{PageSize: l.eng.pager.PageSize()},
			ps.tree.Len(), ps.tree.PersistedNodes(), ps.tree.Height())
		if err != nil {
			h.fatalf("partition %d tree: %v", pi, err)
		}
		tree, err := paged.Hydrate(qc)
		if err != nil {
			h.fatalf("partition %d tree: %v", pi, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			h.fatalf("partition %d tree after the batch: %v", pi, err)
		}
		// want[d] is the interval entry d must carry.
		var want []geom.Interval
		if ps.groups != nil {
			for _, g := range ps.groups {
				want = append(want, g.interval)
			}
		} else {
			for id := range l.eng.parts[pi].cells {
				want = append(want, h.model.Cell(field.CellID(id), &c).Interval())
			}
		}
		seen := make([]bool, len(want))
		tree.Search(rstar.Interval1D(math.Inf(-1), math.Inf(1)), func(e rstar.Entry) bool {
			d := e.Data
			if d >= uint64(len(want)) || seen[d] || e.MBR.Lo(0) != want[d].Lo || e.MBR.Hi(0) != want[d].Hi {
				h.fatalf("partition %d tree holds entry %v of payload %d; want one entry per payload below %d, its interval",
					pi, e.MBR, d, len(want))
			}
			seen[d] = true
			return true
		})
		if tree.Len() != len(want) {
			h.fatalf("partition %d tree holds %d entries, want %d", pi, tree.Len(), len(want))
		}
	}
	s := l.eng.store
	if s.areas == nil {
		return // a tiled or opened store widens its summary instead
	}
	p := s.parts[0]
	ivs, areas := make([]geom.Interval, p.cells), make([]float64, p.cells)
	for pos, id := range p.order {
		h.model.Cell(id, &c)
		ivs[pos], areas[pos] = c.Interval(), c.Area()
	}
	ps := s.pager.PageSize()
	sum, err := approx.Build(ivs, areas, s.sumPages*ps)
	if err != nil {
		h.fatalf("summary from scratch: %v", err)
	}
	want := make([]byte, s.sumPages*ps)
	copy(want, sum.Encode())
	var got []byte
	err = qc.ReadRun(s.sumFirst, s.sumFirst+storage.PageID(s.sumPages-1), func(_ storage.PageID, page []byte) bool {
		got = append(got, page...)
		return true
	})
	if err != nil {
		h.fatalf("summary pages: %v", err)
	}
	if !bytes.Equal(got, want) {
		h.fatalf("the refitted summary is not the one approx.Build fits from scratch")
	}
}

// sameSamples checks that f holds the model's samples.
func (h *harness) sameSamples(f field.Mutable) {
	for s := 0; s < f.NumSamples(); s++ {
		if f.SampleValue(s) != h.model.SampleValue(s) {
			h.fatalf("sample %d is %v in the store's field, %v in the model", s, f.SampleValue(s), h.model.SampleValue(s))
		}
	}
}

// retire checks that every closed snapshot whose epoch its store has retired
// refuses to answer, and forgets it.
func (h *harness) retire() {
	kept := h.closed[:0]
	for _, p := range h.closed {
		if p.epoch >= h.low[p.st] {
			kept = append(kept, p)
			continue
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			p.eng.QueryContext(context.Background(), p.batch[0].Query)
			return nil
		}()
		if got != "core: snapshot used after Close" {
			h.fatalf("a snapshot at retired epoch %d answered (recovered %v)", p.epoch, got)
		}
	}
	h.closed = kept
}

// snapshot acquires a snapshot of the live store, which must answer as the
// store does now; at most three stay open.
func (h *harness) snapshot(i int, vr geom.Interval, s step) {
	if len(h.snaps) == 3 {
		h.closeSnap(0)
	}
	e := h.cur.eng
	p := &pinnedSnap{eng: e.AcquireSnapshot(), st: e.store, epoch: e.Epoch(),
		batch: []BatchQuery{{Query: interval(vr, s.a, s.b)}, {Query: vr, Measure: true}}, pt: h.point(s.b, s.c)}
	h.logf(i, "snapshot at epoch %d probing %v, %v, %v", p.epoch, p.batch[0].Query, p.batch[1].Query, p.pt)
	if p.eng.Epoch() != p.epoch {
		h.fatalf("snapshot at epoch %d, the store at %d", p.eng.Epoch(), p.epoch)
	}
	for _, m := range p.batch {
		r := h.value(p.eng, m.Query, m.Measure, false)
		if now := h.value(e, m.Query, m.Measure, false); !reflect.DeepEqual(r, now) {
			h.fatalf("%v: a fresh snapshot answers %s, its store %s", m.Query, brief(r), brief(now))
		}
		p.res = append(p.res, r)
	}
	p.w, p.wIO, p.wErr = h.pointQuery(p.eng, p.pt)
	p.agg = h.aggregateAt(p.eng, p.batch[0].Query, math.Inf(1))
	h.snaps = append(h.snaps, p)
}

// closeSnap closes snapshot j — twice: Close is idempotent.
func (h *harness) closeSnap(j int) {
	p := h.snaps[j]
	for k := 0; k < 2; k++ {
		if err := p.eng.Close(); err != nil {
			h.fatalf("snapshot Close %d: %v", k+1, err)
		}
	}
	h.snaps = slices.Delete(h.snaps, j, j+1)
	h.closed = append(h.closed, p)
}

// checkSnaps re-asks every open snapshot its probes — solo, as one batch and
// as a point query — which must answer as when it was acquired.
func (h *harness) checkSnaps() {
	for _, p := range h.snaps {
		for j, m := range p.batch {
			if got := h.value(p.eng, m.Query, m.Measure, false); !reflect.DeepEqual(got, p.res[j]) {
				h.fatalf("the snapshot at epoch %d answers %v with %s, acquired %s", p.epoch, m.Query, brief(got), brief(p.res[j]))
			}
		}
		results, _ := p.eng.QueryBatch(p.batch)
		for j, r := range results {
			if r.Err != nil || !reflect.DeepEqual(r.Res, p.res[j]) {
				h.fatalf("the snapshot at epoch %d batches %v to %s (%v), solo %s", p.epoch, p.batch[j].Query, brief(r.Res), r.Err, brief(p.res[j]))
			}
			h.pub = h.pub.Add(r.Res.IO)
		}
		if w, io, bad := h.pointQuery(p.eng, p.pt); w != p.w || io != p.wIO || bad != p.wErr {
			h.fatalf("the snapshot at epoch %d answers %v with %v (%v), acquired %v (%v)", p.epoch, p.pt, w, io, p.w, p.wIO)
		}
		if agg := h.aggregateAt(p.eng, p.batch[0].Query, math.Inf(1)); !reflect.DeepEqual(agg, p.agg) {
			h.fatalf("the snapshot at epoch %d aggregates %+v, acquired %+v", p.epoch, agg, p.agg)
		}
	}
}

// reopen saves the live store and opens the file, which must be the same
// store answering the same Results; the opened store goes live and the saved
// one becomes its twin.
func (h *harness) reopen(i int, q geom.Interval) {
	path := filepath.Join(h.dir, fmt.Sprintf("%d.fidx", i))
	old := h.cur
	h.logf(i, "reopen probing %v", q)
	if err := old.eng.SaveFile(path); err != nil {
		h.fatalf("save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		h.fatalf("save: %v", err)
	}
	h.saved[path] = sha256.Sum256(data)
	e, err := openIx(path, 8192)
	if err != nil {
		h.fatalf("open: %v", err)
	}
	h.opened = append(h.opened, e)
	h.pagers = append(h.pagers, e.pager)
	h.low[e.store] = e.Epoch()
	if e.Stats() != old.eng.Stats() || e.Epoch() != old.eng.Epoch() || e.ValueRange() != old.eng.ValueRange() ||
		!reflect.DeepEqual(e.Tiles(), old.eng.Tiles()) || sidecarCodec(e) != sidecarCodec(old.eng) {
		h.fatalf("opened %v at epoch %d over %v with %q sidecars and tiles %v;\nsaved %v at epoch %d over %v with %q sidecars and tiles %v",
			e.Stats(), e.Epoch(), e.ValueRange(), sidecarCodec(e), e.Tiles(),
			old.eng.Stats(), old.eng.Epoch(), old.eng.ValueRange(), sidecarCodec(old.eng), old.eng.Tiles())
	}
	for _, q := range []geom.Interval{q, h.model.ValueRange()} {
		if got, want := h.value(e, q, false, false), h.value(old.eng, q, false, false); !reflect.DeepEqual(got, want) {
			h.fatalf("%v: the opened store answers %s, the saved one %s", q, brief(got), brief(want))
		}
		if got, want := h.aggregateAt(e, q, math.Inf(1)), h.aggregateAt(old.eng, q, math.Inf(1)); !reflect.DeepEqual(got, want) {
			h.fatalf("%v: the opened store aggregates %+v, the saved one %+v", q, got, want)
		}
	}
	h.twin = &old
	h.cur = live{eng: e, f: h.cfg.hf.clone(h.model), opened: true}
}

// rebuild builds the row afresh over the model's field: an untiled store's
// maintained partition must be the one the build cuts, its filter selecting
// the same candidates, and its refitted summary the one the build fits. (A
// tile's value range only ever widens under updates, so a tiled store may scan
// a tile a fresh build prunes.)
func (h *harness) rebuild(i int, q geom.Interval) {
	if h.cfg.row.opts.TileSide != 0 {
		h.logf(i, "rebuild (tiled: skipped)")
		return
	}
	h.logf(i, "rebuild probing %v", q)
	scratch, err := buildIx(h.cfg.hf.clone(h.model), newPager(), h.cfg.row.opts)
	if err != nil {
		h.fatalf("rebuild: %v", err)
	}
	if got, want := h.cur.eng.Stats().Groups, scratch.Stats().Groups; got != want {
		h.fatalf("the store keeps %d subfields, a fresh build cuts %d", got, want)
	}
	for _, q := range []geom.Interval{q, h.model.ValueRange()} {
		want, err := scratch.Query(q)
		if err != nil {
			h.fatalf("rebuild %v: %v", q, err)
		}
		if got := h.value(h.cur.eng, q, false, false); !reflect.DeepEqual(answerOf(got), answerOf(want)) {
			h.fatalf("%v: the store answers %+v, a fresh build %+v", q, answerOf(withoutGeometry(got)), answerOf(withoutGeometry(want)))
		}
		// A store built in memory refits its summary; a file's only widens.
		if h.cur.opened || h.cur.eng.sumPages == 0 {
			continue
		}
		got := h.aggregateAt(h.cur.eng, q, math.Inf(1))
		if want, err := scratch.AggregateContext(context.Background(), q, math.Inf(1)); err != nil || *got != *want {
			h.fatalf("%v: the store aggregates %+v, a fresh build %+v (%v)", q, got, want, err)
		}
	}
}

// seedSteps is the seed corpus's program: every op, a snapshot held across the
// first update, a reopen between two updates, a snapshot closed before the
// update that retires its epoch — a nudge, which refreshes subfields in place
// where the others re-cut them —, an update the store refuses, and scratch
// rebuilds after the updates.
var seedSteps = []step{
	{opQuery, 100, 60, 0},
	{opMeasure, 20, 90, 0},
	{opBatch, 3, 1, 2},
	{opAggregate, 60, 100, 0},
	{opApprox, 80, 80, 0},
	{opPoint, 100, 140, 0},
	{opSnapshot, 90, 120, 40},
	{opUpdate, 7, 3, 4},
	{opApprox, 150, 120, 0},
	{opQuery, 200, 140, 0},
	{opMeasure, 5, 255, 0},
	{opBatch, 1, 5, 6},
	{opAggregate, 90, 200, 3},
	{opUpdate, 5, 13, 13},
	{opApprox, 100, 160, 0},
	{opRebuild, 70, 110, 0},
	{opReopen, 110, 90, 0},
	{opQuery, 120, 100, 0},
	{opSnapshot, 60, 200, 10},
	{opUpdate, 11, 7, 8},
	{opPoint, 30, 200, 0},
	{opUpdate, 2, 1, 3},
	{opClose, 0, 0, 0},
	{opAggregate, 140, 60, 1},
	{opUpdate, 7, 9, 9},
	{opBatch, 4, 11, 12},
	{opQuery, 160, 0, 0},
	{opApprox, 40, 180, 0},
	{opRebuild, 130, 70, 0},
}

// seedProgram is the corpus entry of configuration cfg: seedSteps with every
// interval and point moved by cfg, so each configuration is probed elsewhere.
func seedProgram(cfg int) []byte {
	p := program{cfg: cfg, steps: slices.Clone(seedSteps)}
	for i := range p.steps {
		if p.steps[i].op != opClose {
			p.steps[i].a += byte(7 * cfg)
		}
	}
	return p.encode()
}

// blockSeeds are programs on the untiled I-Hilbert rows whose queries cut the
// parallel refinement's edge cases at four workers. The page runs each
// selects, in pages, are noted beside it.
func blockSeeds() [][]byte {
	dem, tin := configOf("dem", MethodIHilbert, false), configOf("tin", MethodIHilbert, false)
	return [][]byte{
		// More workers than runs.
		program{cfg: dem, steps: []step{
			{opQuery, 0, 210, 0},   // [3 1 3]
			{opMeasure, 9, 250, 0}, // [4 8]
			{opQuery, 216, 0, 0},   // [2 3], an isoline
			{opBatch, 1, 0, 210},
		}}.encode(),
		// A single run.
		program{cfg: dem, steps: []step{
			{opQuery, 0, 115, 0},   // [1]
			{opMeasure, 0, 255, 0}, // [13]
			{opQuery, 180, 0, 0},   // [8], an isoline
		}}.encode(),
		// One run far longer than the rest.
		program{cfg: dem, steps: []step{
			{opQuery, 114, 60, 0},     // [2 8]
			{opMeasure, 109, 0, 0},    // [3 8], an isoline
			{opQuery, 114, 0, 0},      // [2 8], an isoline
			{opAggregate, 114, 60, 0}, // [2 8], the exact fallback
			{opUpdate, 7, 9, 9},
			{opQuery, 114, 60, 0},
		}}.encode(),
		program{cfg: tin, steps: []step{
			{opQuery, 0, 250, 0},   // [9 2]
			{opMeasure, 150, 0, 0}, // [6 5], an isoline
		}}.encode(),
	}
}

// configOf is the index of the harness configuration over the field called
// field that runs method, tiled or not.
func configOf(field string, method Method, tiled bool) int {
	return slices.IndexFunc(harnessConfigs(), func(c harnessConfig) bool {
		return c.hf.name == field && c.row.opts.Method == method && (c.row.opts.TileSide != 0) == tiled
	})
}

// latticeSteps are point steps on the lattice (see latticePoint): on the DEM,
// a vertical and a horizontal interior edge, an interior corner, the origin,
// the far corner and a far edge — where grid.DEM.Locate clamps — and just past
// the far boundary in x and in y.
var latticeSteps = []step{
	{opPoint, 50, 126, 1},
	{opPoint, 125, 48, 1},
	{opPoint, 50, 96, 1},
	{opPoint, 0, 0, 1},
	{opPoint, 240, 240, 1},
	{opPoint, 240, 126, 1},
	{opPoint, 241, 120, 1},
	{opPoint, 120, 241, 1},
}

// pointSeeds are programs asking latticeSteps of an untiled and a tiled DEM
// store and of the TIN: built, after an update, opened from the file the
// reopen saves — a DEM's through the lattice its catalog carries too — and
// once more after the next update.
func pointSeeds() [][]byte {
	var out [][]byte
	for _, cfg := range []int{configOf("dem", MethodIHilbert, false), configOf("dem", MethodLinearScan, true), configOf("tin", MethodIHilbert, false)} {
		steps := slices.Concat(latticeSteps, []step{{opUpdate, 7, 9, 9}, {opReopen, 100, 60, 0}},
			latticeSteps, []step{{opUpdate, 5, 13, 13}}, latticeSteps)
		out = append(out, program{cfg: cfg, steps: steps}.encode())
	}
	return out
}

// FuzzEngineProgram runs programs decoded from bytes against the model: a
// failure is an engine and an oracle that disagree, or an invariant broken,
// and the log shows the program up to the step that failed.
func FuzzEngineProgram(f *testing.F) {
	for cfg := range harnessConfigs() {
		f.Add(seedProgram(cfg))
	}
	for _, seed := range slices.Concat(blockSeeds(), pointSeeds()) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		runProgram(t, harnessConfigs()[p.cfg], p.steps)
	})
}

// rowOf is a named configuration outside the build matrix, folding in natural
// order exactly when the matrix would.
func rowOf(name string, opts BuildOptions) matrixRow {
	return matrixRow{name: name, opts: opts, natural: !methods[opts.Method].cut}
}

// fieldNamed is the harness field called name.
func fieldNamed(name string) *harnessField {
	return harnessFields()[slices.IndexFunc(harnessFields(), func(hf *harnessField) bool { return hf.name == name })]
}

// runOn runs steps on row over the harness field named field.
func runOn(t *testing.T, field string, row matrixRow, steps ...step) {
	runProgram(t, harnessConfig{fieldNamed(field), row}, steps)
}

// runRows runs steps on each row over the harness field named field, as a
// subtest named prefix + the row's name.
func runRows(t *testing.T, field, prefix string, rows []matrixRow, steps ...step) {
	for _, row := range rows {
		t.Run(prefix+row.name, func(t *testing.T) { runOn(t, field, row, steps...) })
	}
}

// matrixRows is the buildable rows of the build matrix over the harness field
// named field.
func matrixRows(field string) []matrixRow {
	var out []matrixRow
	for _, c := range harnessConfigs() {
		if c.hf.name == field {
			out = append(out, c.row)
		}
	}
	return out
}

// TestMeasureIdentity: on every buildable row, grid and TIN, the measure
// queries the seed program does not ask — an isoline, and an interval past the
// top of the value range, which matches nothing.
func TestMeasureIdentity(t *testing.T) {
	for _, fname := range []string{"dem", "tin"} {
		prefix := map[string]string{"dem": "grid/", "tin": "tin/"}[fname]
		runRows(t, fname, prefix, matrixRows(fname), step{opMeasure, 140, 0, 0}, step{opMeasure, 255, 40, 0})
	}
}

// TestPinnedSnapshots: on every buildable row, two snapshots of one store at
// different epochs, closed newest first — the seed program closes the oldest:
// the older pin keeps every epoch alive until it closes too, and the next
// batch then retires both, which refuse to answer.
func TestPinnedSnapshots(t *testing.T) {
	runRows(t, "dem", "", matrixRows("dem"),
		step{opSnapshot, 90, 120, 40}, step{opUpdate, 11, 1, 2}, step{opSnapshot, 30, 200, 70},
		step{opUpdate, 7, 3, 4}, step{opClose, 1, 0, 0}, step{opUpdate, 5, 5, 6},
		step{opClose, 0, 0, 0}, step{opUpdate, 3, 7, 8})
}

// batchRows is the configuration list of the batch suites over f: every
// untiled method and a worker pool.
func batchRows(f field.Field) []matrixRow {
	return []matrixRow{
		rowOf("LinearScan+sidecar", BuildOptions{Method: MethodLinearScan}),
		rowOf("LinearScan", BuildOptions{Method: MethodLinearScan, NoSidecar: true}),
		rowOf("I-All", BuildOptions{Method: MethodIAll}),
		rowOf("I-Hilbert", BuildOptions{Method: MethodIHilbert}),
		rowOf("I-Hilbert+workers", BuildOptions{Method: MethodIHilbert, Workers: 4}),
	}
}

// TestBatchMatchesSolo: batches of two to six members — overlapping,
// disjoint, zero-width, whole-range — on every batch row answer each member as
// its solo call, I/O included.
func TestBatchMatchesSolo(t *testing.T) {
	runRows(t, "dem", "", batchRows(fieldNamed("dem").f),
		step{opBatch, 0, 1, 1}, step{opBatch, 1, 2, 3}, step{opBatch, 3, 4, 5}, step{opBatch, 4, 6, 7})
}

// tiledBatchRows are the tilings whose batches share a scan — sidecar-served
// scans — and one whose members run solo, all in 5-cell tiles: where the
// matrix cuts the DEM into four tiles, these cut it into 20, the last column
// narrower, for the scatter to spread and the gather to fold.
var tiledBatchRows = []matrixRow{
	rowOf("Tiled-LinearScan", BuildOptions{Method: MethodLinearScan, TileSide: 5}),
	rowOf("Tiled-LinearScan+packed", BuildOptions{Method: MethodLinearScan, TileSide: 5, Codec: storage.SidecarCodecPacked}),
	rowOf("Tiled-I-Hilbert", BuildOptions{Method: MethodIHilbert, TileSide: 5}),
}

// TestTiledBatchMatchesSolo: batched tiled queries answer each member as its
// solo call, I/O included.
func TestTiledBatchMatchesSolo(t *testing.T) {
	runRows(t, "dem", "", tiledBatchRows, step{opBatch, 0, 1, 1}, step{opBatch, 2, 8, 9}, step{opBatch, 4, 3, 2})
}

// TestTiledMergeIdentity: where tile order is not field-id order — a TIN's
// spatial bins — or a tile's heap order is not its ids' — I-Hilbert tiles —,
// the gather folds the oracle's answer in tile order: byte for byte on
// LinearScan tiles, as sets on I-Hilbert ones; at one worker and four, solo
// and batched.
func TestTiledMergeIdentity(t *testing.T) {
	steps := []step{{opQuery, 100, 90, 0}, {opQuery, 10, 255, 0}, {opQuery, 120, 0, 0}, {opBatch, 3, 5, 5}}
	runRows(t, "dem", "dem/", tiledBatchRows[2:], steps...)
	runRows(t, "tin", "tin/", []matrixRow{tiledBatchRows[2], tiledBatchRows[1]}, steps...)
}

// TestTiledParallelMatchesSequential: the worker-pool scatter of a tiled scan
// answers as the sequential one, value queries and exact aggregates alike, on
// a DEM and on a TIN, whose cell areas show the summation order.
func TestTiledParallelMatchesSequential(t *testing.T) {
	for _, fname := range []string{"dem", "tin"} {
		t.Run(fname, func(t *testing.T) {
			runOn(t, fname, tiledBatchRows[0],
				step{opQuery, 100, 60, 0}, step{opQuery, 230, 200, 0}, step{opAggregate, 70, 90, 0}, step{opAggregate, 0, 255, 1})
		})
	}
}

// TestLinearScanSidecarByteIdentity: the sidecar-served scan and the heap scan
// it replaces both fold the oracle's answer, before and after an update batch
// patches the sidecar.
func TestLinearScanSidecarByteIdentity(t *testing.T) {
	for _, fname := range []string{"dem", "tin"} {
		t.Run(fname, func(t *testing.T) {
			for _, row := range batchRows(fieldNamed(fname).f)[:2] {
				runOn(t, fname, row,
					step{opQuery, 100, 30, 0}, step{opQuery, 0, 255, 0}, step{opQuery, 250, 10, 0},
					step{opQuery, 128, 0, 0}, step{opUpdate, 11, 4, 4}, step{opQuery, 200, 150, 0})
			}
		})
	}
}

// updatableRows is the configuration list of the update suites: every method
// with live updates, untiled and — where the method tiles — in 8-cell tiles.
var updatableRows = []matrixRow{
	rowOf("Tiled-LinearScan", BuildOptions{Method: MethodLinearScan, TileSide: 8}),
	rowOf("Tiled-I-Hilbert", BuildOptions{Method: MethodIHilbert, TileSide: 8}),
	rowOf("LinearScan", BuildOptions{Method: MethodLinearScan}),
	rowOf("I-All", BuildOptions{Method: MethodIAll}),
	rowOf("I-Hilbert", BuildOptions{Method: MethodIHilbert}),
}

// TestUpdateConvergence: after three update batches every updatable store
// answers the mutated field's value and point queries as the oracle does, and
// an untiled one keeps the partition and candidates a fresh build has.
func TestUpdateConvergence(t *testing.T) {
	for _, fname := range []string{"dem", "tin"} {
		runRows(t, fname, fname+"/", updatableRows,
			step{opUpdate, 11, 1, 2}, step{opUpdate, 11, 2, 4}, step{opUpdate, 11, 3, 6},
			step{opPoint, 40, 60, 0}, step{opPoint, 200, 170, 0}, step{opQuery, 180, 120, 0},
			step{opRebuild, 100, 60, 0}, step{opRebuild, 30, 200, 0})
	}
}

// TestUpdateSnapshotIsolation: a snapshot acquired before a batch answers
// with the pre-batch state — solo and as one shared batch at the pin — while
// the live store answers the new one.
func TestUpdateSnapshotIsolation(t *testing.T) {
	runRows(t, "dem", "", updatableRows,
		step{opSnapshot, 60, 160, 20}, step{opUpdate, 11, 7, 8}, step{opQuery, 60, 160, 0}, step{opBatch, 2, 1, 0})
}

// TestProgramDecoding: a program survives encoding, every op has a name, and
// the seed corpus covers every op on every configuration.
func TestProgramDecoding(t *testing.T) {
	ops := map[op]bool{}
	for cfg := range harnessConfigs() {
		p := decodeProgram(seedProgram(cfg))
		if p.cfg != cfg || !bytes.Equal(p.encode(), seedProgram(cfg)) {
			t.Fatalf("configuration %d: the seed decodes to %d, re-encoding to different bytes", cfg, p.cfg)
		}
		for _, s := range p.steps {
			ops[s.op] = true
		}
	}
	for o := op(0); o < numOps; o++ {
		if !ops[o] || opNames[o] == "" {
			t.Fatalf("op %d (%q) is not in the seed program", o, opNames[o])
		}
	}
	if p := decodeProgram(append(seedProgram(0), 1, 2, 3)); len(p.steps) != len(seedSteps) {
		t.Fatalf("a short tail decoded to a step: %d steps", len(p.steps))
	}
}
