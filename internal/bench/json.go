package bench

import (
	"encoding/json"

	"fielddb/internal/core"
)

// ReportJSON is the machine-readable form of a Report: the same measured
// points as Table/CSV, but as a stable JSON document so CI and future PRs
// can diff performance without scraping stdout. Experiment is reduced to its
// identifying fields — the dataset and index builders are functions and have
// no serialized form.
type ReportJSON struct {
	Experiment string             `json:"experiment"`
	Title      string             `json:"title"`
	Cells      int                `json:"cells"`
	Queries    int                `json:"queries_per_point"`
	Seed       int64              `json:"seed"`
	BuildMs    map[string]float64 `json:"build_ms"`
	Series     []SeriesJSON       `json:"series"`
}

// SeriesJSON is one method's curve in a ReportJSON.
type SeriesJSON struct {
	Label  string          `json:"label"`
	Stats  core.IndexStats `json:"index_stats"`
	Points []Point         `json:"points"`
}

// JSON converts the report to its machine-readable form.
func (r *Report) JSON() ReportJSON {
	out := ReportJSON{
		Experiment: r.Experiment.Name,
		Title:      r.Experiment.Title,
		Cells:      r.Cells,
		Queries:    queriesOf(r.Experiment),
		Seed:       r.Experiment.Seed,
		BuildMs:    map[string]float64{},
	}
	for label, d := range r.BuildTimes {
		out.BuildMs[label] = d.Seconds() * 1e3
	}
	for _, s := range r.Series {
		out.Series = append(out.Series, SeriesJSON{Label: s.Label, Stats: s.Stats, Points: s.Points})
	}
	return out
}

// MarshalIndent renders any bench result value (ReportJSON or a slice of
// them, a row map) as indented JSON with a trailing newline.
func MarshalIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
