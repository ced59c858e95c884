package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"fielddb"
	"fielddb/internal/geom"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want, got int }{
		{120, 95, 91}, // the issue's example: 120 samples support p91, so p90 is honest and p95 is not
		{120, 90, 90},
		{200, 95, 95},
		{199, 95, 94},
		{1000, 95, 95},
		{20, 95, 50},
		{19, 95, 0},
	} {
		if got := highestPercentile(tc.n, tc.want); got != tc.got {
			t.Errorf("highestPercentile(%d, %d) = %d, want %d", tc.n, tc.want, got, tc.got)
		}
	}
	// Whatever it picks leaves at least tailSamples beyond the reported value,
	// and one percentile higher would not (unless capped).
	for n := 2 * tailSamples; n < 700; n++ {
		p := highestPercentile(n, 99)
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		beyond := func(p int) int { return n - 1 - int(percentile(sorted, p)) }
		if beyond(p) < tailSamples {
			t.Fatalf("n=%d: p%d has only %d samples beyond it", n, p, beyond(p))
		}
		if p < 99 && beyond(p+1) >= tailSamples {
			t.Fatalf("n=%d: picked p%d but p%d still has %d samples beyond it", n, p, p+1, beyond(p+1))
		}
	}
}

func TestTailFallsBackWhenSampleIsSmall(t *testing.T) {
	lat := make(latencies, 28)
	if _, _, used := lat.tail(90); used != 64 {
		t.Errorf("28 samples: tail(90) used p%d, want p64", used)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 30, End: 60},       // overlaps a
		{ID: 3, Parent: 0, Op: 1, Name: "c", Start: 90, End: 120},      // sticks out of root
		{ID: 4, Parent: 1, Op: 1, Name: "a1", Start: 15, End: 25},      // nested in a
		{ID: 5, Parent: 1, Op: 1, Name: "a2", Start: 20, End: 30},      // overlaps a1
		{ID: 6, Parent: 2, Op: 1, Name: "b1", Start: 30, End: 60},      // covers b entirely
		{ID: 7, Parent: -1, Op: 2, Name: "root", Start: 200, End: 230}, // childless
	}
	want := []int64{
		100 - (50 + 10), // a∪b = [10,60], c clipped to [90,100]
		30 - 15,         // a1∪a2 = [15,30]
		0,
		30,
		10, 10, 30, 30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSummaryBalancesSequentialSpans(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{ID: 0, Parent: -1, Op: 1, Name: "http.client", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "serve.handler", Start: 5, End: 90},
		{ID: 2, Parent: 1, Op: 1, Name: "fielddb.call", Start: 10, End: 80},
		{ID: 3, Parent: 2, Op: 1, Name: "filter", Start: 12, End: 20, Pages: 3},
		{ID: 4, Parent: 2, Op: 1, Name: "refine", Start: 20, End: 75, Pages: 40},
	}
	sum := rec.summarize()
	if sum.unbalanced != 0 || sum.ops != 1 {
		t.Fatalf("ops %d unbalanced %d, want 1 and 0", sum.ops, sum.unbalanced)
	}
	if got := sum.selfNs["fielddb.call"]; got != 70-63 {
		t.Errorf("fielddb.call self = %d, want 7", got)
	}
	if sum.pages["refine"] != 40 {
		t.Errorf("refine pages = %d, want 40", sum.pages["refine"])
	}
	// A child sticking out of its parent loses the part outside, and the
	// operation's books no longer balance: that is the alarm.
	rec.spans[4].End = 95
	if sum := rec.summarize(); sum.unbalanced != 1 {
		t.Errorf("unbalanced = %d after a child outgrew its parent, want 1", sum.unbalanced)
	}
}

func TestInputsRepeatBySeed(t *testing.T) {
	vr := fielddb.Interval{Lo: 200, Hi: 1400}
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(7680, 7680)}
	gen := func(seed int64) string {
		reqs, pool := requestList(servedField, vr, bounds, 640, seed)
		return fmt.Sprint(queryRotation(vr, 64, seed), reqs, pool, updateStream(66049, vr, 36, seed))
	}
	if gen(7) != gen(7) {
		t.Error("the same seed gave different inputs")
	}
	if gen(7) == gen(8) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestRequestMix(t *testing.T) {
	vr := fielddb.Interval{Lo: 200, Hi: 1400}
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(7680, 7680)}
	reqs, pool := requestList(servedField, vr, bounds, 640, 3)
	var n [numClasses]int
	for _, r := range reqs {
		n[r.Class]++
		if r.Class != classPoint {
			iv := pool[r.Interval]
			if iv.Lo < vr.Lo || iv.Hi > vr.Hi {
				t.Fatalf("interval %v outside the value range %v", iv, vr)
			}
		}
	}
	want := [numClasses]int{classRange: 392, classGeometryJSON: 20, classGeometryBin: 20, classPoint: 80, classAggregate: 128}
	if n != want {
		t.Errorf("class counts %v, want %v", n, want)
	}
}

// TestRotationIsStratified: whatever the seed, query i of a selectivity (by
// position) sits in stratum i of the value range, so every seed sees the
// same mix of cheap and dear bands.
func TestRotationIsStratified(t *testing.T) {
	vr := fielddb.Interval{Lo: 200, Hi: 1400}
	const perSel = 64
	for _, seed := range []int64{1, 2, 99} {
		bySel := map[int][]float64{}
		for _, iv := range queryRotation(vr, perSel, seed) {
			sel := int(math.Round(100 * iv.Length() / vr.Length()))
			bySel[sel] = append(bySel[sel], iv.Lo)
		}
		if len(bySel) != len(selectivities) {
			t.Fatalf("seed %d: %d distinct widths", seed, len(bySel))
		}
		for sel, los := range bySel {
			sort.Float64s(los)
			room := vr.Length() * (1 - float64(sel)/100)
			for i, lo := range los {
				if s := int((lo - vr.Lo) / room * perSel); s != i {
					t.Fatalf("seed %d sel %d%%: query %d is in stratum %d", seed, sel, i, s)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inProgram any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	mine, _ := json.Marshal(declared())
	json.Unmarshal(mine, &inProgram)
	if !reflect.DeepEqual(onDisk, inProgram) {
		t.Error("BENCHMARK.json differs from what the program declares; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}

	// The driver's limits.
	d := declared()
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the allowed form", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range d.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *metricSpec
	for i, m := range d.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &d.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	} else {
		for _, m := range d.EndToEnd {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", m.Name)
			}
		}
	}
	for _, m := range d.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}
}

// TestSmoke runs all four workloads, both passes, at 1/16 of the terrain
// area and a fraction of a second each. It checks what a full run checks —
// every answer against the oracle, every traced operation's books — and that
// each pass emits exactly the metrics BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 5, seconds: 0.4, trace: traced, smoke: true, outDir: dir}
			out, err := runOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, traced, out.failed, out.attempted, out.errs)
			}
			if _, err := resultLine(cfg, out); err != nil {
				t.Error(err)
			}
			declaredNames := map[string]bool{}
			for _, m := range metricsFor(traced) {
				declaredNames[m.Name] = true
				if v, ok := out.metrics[m.Name]; !traced && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be reported and never 0", w.Name, m.Name, v)
				}
			}
			for name := range out.metrics {
				if !declaredNames[name] {
					t.Errorf("%s trace=%v emits %s, which BENCHMARK.json does not declare for that pass", w.Name, traced, name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.fidx"))
	if len(left) > 0 {
		t.Errorf("temporary index files left behind: %v", left)
	}
}
