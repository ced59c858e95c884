package bench

import (
	"fmt"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/workload"
)

// Scale selects dataset sizes. The paper's full sizes (512×512 terrain,
// 1024×1024 fractals, ~9,000-triangle TIN, 200 queries per point) take
// minutes per figure; the default scale divides the linear size by 4 and the
// query count by 4 while preserving every qualitative shape.
type Scale struct {
	Full bool
}

func (s Scale) side(full int) int {
	if s.Full {
		return full
	}
	return full / 4
}

func (s Scale) queries() int {
	if s.Full {
		return workload.QueryCount
	}
	return workload.QueryCount / 4
}

func (s Scale) noisePoints() int {
	if s.Full {
		return 4600
	}
	return 1200
}

// Figure8a is the real-terrain experiment: 512×512 DEM, Qinterval 0–0.1,
// LinearScan vs I-All vs I-Hilbert.
func Figure8a(s Scale) Experiment {
	return Experiment{
		Name:  "fig8a",
		Title: "terrain DEM (USGS stand-in), execution time vs Qinterval",
		Dataset: func() (field.Field, error) {
			return FixtureTerrain(s.side(512), 0)
		},
		QIntervals: workload.QIntervalsReal,
		Specs:      SpecsForMethods(core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert),
		Queries:    s.queries(),
		Seed:       81,
	}
}

// Figure8b is the urban-noise experiment: ~9,000-triangle TIN.
func Figure8b(s Scale) Experiment {
	return Experiment{
		Name:  "fig8b",
		Title: "urban noise TIN (Lyon stand-in), execution time vs Qinterval",
		Dataset: func() (field.Field, error) {
			return workload.NoiseTIN(s.noisePoints(), 907)
		},
		QIntervals: workload.QIntervalsReal,
		Specs:      SpecsForMethods(core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert),
		Queries:    s.queries(),
		Seed:       82,
	}
}

// Figure11 is the fractal sweep: one experiment per roughness H over a
// 1024×1024 diamond-square DEM.
func Figure11(h float64, s Scale) Experiment {
	return Experiment{
		Name:  fmt.Sprintf("fig11-H%.1f", h),
		Title: fmt.Sprintf("fractal DEM, H = %.1f, execution time vs Qinterval", h),
		Dataset: func() (field.Field, error) {
			return workload.FractalDEM(s.side(1024), h, 1100+int64(h*10))
		},
		QIntervals: workload.QIntervalsSynthetic,
		Specs:      SpecsForMethods(core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert),
		Queries:    s.queries(),
		Seed:       110 + int64(h*100),
	}
}

// Figure12b is the monotonic-field experiment: w(x, y) = x + y on 512×512.
func Figure12b(s Scale) Experiment {
	return Experiment{
		Name:  "fig12b",
		Title: "monotonic DEM w(x,y) = x + y, execution time vs Qinterval",
		Dataset: func() (field.Field, error) {
			return workload.Monotonic(s.side(512))
		},
		QIntervals: append([]float64{}, 0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06),
		Specs:      SpecsForMethods(core.MethodLinearScan, core.MethodIAll, core.MethodIHilbert),
		Queries:    s.queries(),
		Seed:       120,
	}
}

// RelatedIPIndex compares the paper's related work (§2.3) — one IP-index
// per DEM row, continuity along one axis only — against I-Hilbert and
// LinearScan on the terrain dataset.
func RelatedIPIndex(s Scale) Experiment {
	specs := append(SpecsForMethods(core.MethodLinearScan, core.MethodIHilbert),
		IndexSpec{Label: "I-IntTree", Build: buildIntervalTree}, IndexSpec{Label: "IP-Row", Build: buildIPRow})
	return Experiment{
		Name:  "related-ipindex",
		Title: "related work: row-wise IP-index and main-memory interval tree vs I-Hilbert",
		Dataset: func() (field.Field, error) {
			return FixtureTerrain(s.side(512), 0)
		},
		QIntervals: workload.QIntervalsReal,
		Specs:      specs,
		Queries:    s.queries(),
		Seed:       160,
	}
}

// All returns every experiment of the evaluation at the given scale, in
// paper order.
func All(s Scale) []Experiment {
	out := []Experiment{Figure8a(s), Figure8b(s)}
	for _, h := range workload.HSweep {
		out = append(out, Figure11(h, s))
	}
	out = append(out, Figure12b(s), RelatedIPIndex(s))
	return out
}

// ByName returns the experiment with the given name at the given scale.
func ByName(name string, s Scale) (Experiment, error) {
	for _, e := range All(s) {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}
