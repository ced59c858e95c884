package bench

import (
	"strings"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
)

// tinyScale builds very small experiments for unit testing.
func tinyExperiment(t *testing.T) Experiment {
	t.Helper()
	return Experiment{
		Name:  "tiny",
		Title: "unit-test experiment",
		Dataset: func() (field.Field, error) {
			return grid.FromFunc(geom.Pt(0, 0), 1, 1, 16, 16, func(x, y float64) float64 {
				return x + 2*y
			})
		},
		QIntervals: []float64{0, 0.05, 0.1},
		Specs:      SpecsForMethods(core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert),
		Queries:    10,
		Seed:       7,
	}
}

func TestRunProducesFullGrid(t *testing.T) {
	rep, err := Run(tinyExperiment(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 256 {
		t.Fatalf("cells = %d", rep.Cells)
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.WallMs < 0 || p.SimMs < 0 || p.Pages <= 0 {
				t.Fatalf("%s: implausible point %+v", s.Label, p)
			}
		}
		if rep.BuildTimes[s.Label] <= 0 {
			t.Fatalf("%s: no build time", s.Label)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Run(tinyExperiment(t))
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Table()
	for _, want := range []string{"tiny", "LinearScan", "I-All", "I-Hilbert", "Qinterval", "wall ms"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// header + 3 methods × 3 Qintervals
	if len(lines) != 1+9 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,method,") {
		t.Fatalf("csv header %q", lines[0])
	}
}

func TestSpeedupAndGeoMean(t *testing.T) {
	rep, err := Run(tinyExperiment(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := rep.Speedup("LinearScan", "I-Hilbert", true)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup = %g", s)
	}
	if _, err := rep.Speedup("nope", "I-Hilbert", true); err == nil {
		t.Fatal("unknown series accepted")
	}
	g, err := rep.GeoMeanRatio("LinearScan", "I-Hilbert", true)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("geomean = %g", g)
	}
	if _, err := rep.GeoMeanRatio("nope", "I-Hilbert", false); err == nil {
		t.Fatal("unknown series accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	s := Scale{}
	all := All(s)
	if len(all) != 8 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	names := map[string]bool{}
	for _, e := range all {
		if names[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
		if e.Dataset == nil || len(e.QIntervals) == 0 || len(e.Specs) == 0 {
			t.Fatalf("experiment %q incomplete", e.Name)
		}
	}
	for _, want := range []string{"fig8a", "fig8b", "fig11-H0.1", "fig11-H0.9", "fig12b", "related-ipindex"} {
		if !names[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	if _, err := ByName("fig8a", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("bogus", s); err == nil {
		t.Fatal("bogus experiment found")
	}
}

func TestScaleArithmetic(t *testing.T) {
	s := Scale{}
	if s.side(512) != 128 || s.queries() != 50 || s.noisePoints() != 1200 {
		t.Fatalf("default scale: %d %d %d", s.side(512), s.queries(), s.noisePoints())
	}
	f := Scale{Full: true}
	if f.side(512) != 512 || f.queries() != 200 || f.noisePoints() != 4600 {
		t.Fatalf("full scale: %d %d %d", f.side(512), f.queries(), f.noisePoints())
	}
}

func TestFigure12bShape(t *testing.T) {
	// A scaled-down Fig 12b run must preserve the paper's headline shape:
	// I-Hilbert is the fastest method on monotonic data.
	exp := Figure12b(Scale{})
	exp.Dataset = func() (field.Field, error) {
		return grid.FromFunc(geom.Pt(0, 0), 1, 1, 64, 64, func(x, y float64) float64 { return x + y })
	}
	exp.Queries = 20
	rep, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rep.GeoMeanRatio("LinearScan", "I-Hilbert", true)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 1 {
		t.Fatalf("I-Hilbert not ahead on monotonic data (ratio %g)", g)
	}
}

func TestSortSeries(t *testing.T) {
	rep := &Report{Series: []Series{{Label: "b"}, {Label: "a"}}}
	rep.SortSeries()
	if rep.Series[0].Label != "a" {
		t.Fatal("not sorted")
	}
}

func TestChart(t *testing.T) {
	rep, err := Run(tinyExperiment(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"wall", "sim"} {
		c := rep.Chart(metric)
		if !strings.Contains(c, "Qinterval 0.050") || !strings.Contains(c, "#") {
			t.Fatalf("chart missing content:\n%s", c)
		}
		for _, s := range rep.Series {
			if !strings.Contains(c, s.Label) {
				t.Fatalf("chart missing series %q", s.Label)
			}
		}
	}
	// Degenerate all-zero report doesn't divide by zero.
	empty := &Report{Experiment: Experiment{QIntervals: []float64{0}}, Series: []Series{{Label: "x", Points: []Point{{}}}}}
	_ = empty.Chart("wall")
}
