package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// Row is one benchmark measurement in the BENCH_BASELINE.json schema.
// PagesOp and SimNsOp come off the simulated disk clock and are exactly
// reproducible (the workload is a fixed 64-query rotation); NsOp is wall
// clock and carries host noise, so regression gating compares only the
// simulated metrics.
type Row struct {
	NsOp     float64 `json:"ns_op"`
	PagesOp  float64 `json:"pages_op"`
	SimNsOp  float64 `json:"simns_op"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	// QPSSim is queries per simulated-disk second — the throughput metric of
	// the concurrent (batched) rows, where cost-per-query hides how much
	// coalescing the shared scan achieved. Unlike the cost metrics it is
	// higher-is-better, and the gate fails when it drops.
	QPSSim float64 `json:"qps_sim,omitempty"`
	// ErrBound and ErrTrue record the aggregate tier's error curve: the mean
	// certified fraction bound the summary promises and the mean true error
	// the answers actually made (always ≤ ErrBound, cross-checked inside the
	// measurement). Deterministic like the simulated metrics, but recorded
	// for the error/cost trade-off narrative, not gated.
	ErrBound float64 `json:"err_bound,omitempty"`
	ErrTrue  float64 `json:"err_true,omitempty"`
}

// Measure runs every suite of the simulated-page gate — solo, concurrent
// (batched), update-load, large-terrain tiled, aggregate exact-vs-approx —
// in process and returns their rows as one map: what `fieldbench -bench-json`
// writes and `-compare` reads back as either side.
func Measure() (map[string]Row, error) {
	rows := map[string]Row{}
	for _, suite := range []func() (map[string]Row, error){
		ValueRangeMeasure,
		ConcurrentMeasure,
		UpdateLoadMeasure,
		func() (map[string]Row, error) { return TiledMeasure(0) },
		func() (map[string]Row, error) { return AggregateMeasure(0) },
	} {
		part, err := suite()
		if err != nil {
			return nil, err
		}
		for name, row := range part {
			rows[name] = row
		}
	}
	return rows, nil
}

// ValueRangeMeasure runs the deterministic value-range suite — the exact
// dataset, index specs, worker counts, selectivities, seeds, and
// sub-benchmark names of BenchmarkValueRange — for one full 64-query
// rotation per cell and returns the per-cell rows. Because every metric that
// matters is read off the simulated disk, one rotation reproduces the
// pages_op and simns_op of any -benchtime that is a multiple of 64x.
func ValueRangeMeasure() (map[string]Row, error) {
	f, err := FixtureTerrain(0, 0)
	if err != nil {
		return nil, err
	}
	vr := f.ValueRange()
	rows := map[string]Row{}
	for _, spec := range ValueRangeSpecs() {
		pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
		idx, err := spec.Build(f, pager)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label, err)
		}
		workerCounts := []int{1}
		if spec.ParallelRefine {
			workerCounts = append(workerCounts, 4)
		}
		for _, workers := range workerCounts {
			idx.(core.Engine).SetWorkers(workers)
			for _, sel := range Selectivities {
				queries := FixtureQueries(vr, sel, 64)
				name := fmt.Sprintf("%s/sel=%.2f", spec.Label, sel)
				if workers > 1 {
					name += fmt.Sprintf("/workers=%d", workers)
				}
				var simNs, pages float64
				start := time.Now()
				for _, q := range queries {
					res, err := idx.Query(q)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", name, err)
					}
					simNs += float64(res.IO.SimElapsed.Nanoseconds())
					pages += float64(res.IO.Reads)
				}
				n := float64(len(queries))
				rows[name] = Row{
					NsOp:    float64(time.Since(start).Nanoseconds()) / n,
					PagesOp: pages / n,
					SimNsOp: simNs / n,
				}
			}
		}
	}
	return rows, nil
}

// baselineSection is the section of the checked-in BENCH_BASELINE.json that
// holds the gated rows, read when no section is named.
const baselineSection = "post_approx"

// LoadRows reads benchmark rows from path. Two layouts are accepted: a flat
// {name: row} map (what -bench-json writes) and the checked-in
// BENCH_BASELINE.json layout of named sections (plus "_comment"/"env"
// metadata, which is skipped). For sectioned files, section picks the rows;
// empty means baselineSection. The chosen section name is returned ("" for
// flat files).
func LoadRows(path, section string) (map[string]Row, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	delete(top, "_comment")
	delete(top, "env")
	if section == "" {
		// Flat layout: every remaining value is a row.
		flat := map[string]Row{}
		isFlat := len(top) > 0
		for name, msg := range top {
			row, err := decodeRow(msg)
			if err != nil {
				isFlat = false
				break
			}
			flat[name] = row
		}
		if isFlat {
			return flat, "", nil
		}
		section = baselineSection
	}
	msg, ok := top[section]
	if !ok {
		return nil, "", fmt.Errorf("%s: no section %q", path, section)
	}
	rows, err := decodeRows(msg)
	if err != nil {
		return nil, "", fmt.Errorf("%s[%s]: %w", path, section, err)
	}
	return rows, section, nil
}

// decodeRow parses one row strictly: a section object (whose keys are
// benchmark names, not row fields) fails, which is how LoadRows tells the
// two layouts apart.
func decodeRow(msg json.RawMessage) (Row, error) {
	dec := json.NewDecoder(bytes.NewReader(msg))
	dec.DisallowUnknownFields()
	var row Row
	err := dec.Decode(&row)
	return row, err
}

func decodeRows(msg json.RawMessage) (map[string]Row, error) {
	var rows map[string]Row
	if err := json.Unmarshal(msg, &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// CompareRows gates new measurements against old ones: for every row of old,
// the new pages_op and simns_op may not exceed the old value by more than
// tol (relative). It returns one line per violation, empty when the new
// numbers are clean. Wall-clock and allocation metrics are not gated — they
// measure the host, not the engine.
func CompareRows(oldRows, newRows map[string]Row, tol float64) []string {
	names := make([]string, 0, len(oldRows))
	for name := range oldRows {
		names = append(names, name)
	}
	sort.Strings(names)
	var fails []string
	for _, name := range names {
		nr, ok := newRows[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from new measurements", name))
			continue
		}
		or := oldRows[name]
		if nr.PagesOp > or.PagesOp*(1+tol) {
			fails = append(fails, fmt.Sprintf("%s: pages/op regressed %.1f -> %.1f (+%.1f%%)",
				name, or.PagesOp, nr.PagesOp, 100*(nr.PagesOp/or.PagesOp-1)))
		}
		if nr.SimNsOp > or.SimNsOp*(1+tol) {
			fails = append(fails, fmt.Sprintf("%s: simns/op regressed %.0f -> %.0f (+%.1f%%)",
				name, or.SimNsOp, nr.SimNsOp, 100*(nr.SimNsOp/or.SimNsOp-1)))
		}
		// Throughput is higher-is-better: gate drops, not rises.
		if or.QPSSim > 0 && nr.QPSSim < or.QPSSim*(1-tol) {
			fails = append(fails, fmt.Sprintf("%s: qps_sim regressed %.1f -> %.1f (-%.1f%%)",
				name, or.QPSSim, nr.QPSSim, 100*(1-nr.QPSSim/or.QPSSim)))
		}
	}
	return fails
}
