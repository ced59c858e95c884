package bench

import (
	"fmt"
	"time"

	"fielddb/internal/core"
	"fielddb/internal/storage"
)

// ConcurrentClients is the batch width of the deterministic concurrent-load
// suite: the 64-query rotation of each (method, selectivity) cell executes
// as four shared-scan batches of 16, modeling 16 clients whose queries land
// in the same admission window.
const ConcurrentClients = 16

// ConcurrentMeasure runs the deterministic concurrent-load suite on the same
// 256×256 terrain, index specs, selectivities and query rotations as
// ValueRangeMeasure, but batched: each rotation executes as explicit
// QueryBatch groups of ConcurrentClients. PagesOp and SimNsOp are the
// *physical* (deduplicated) per-query costs — what the batch actually read,
// divided by the member count — and QPSSim is queries per simulated-disk
// second, the higher-is-better throughput metric the regression gate
// watches. Per-member results stay byte-identical to solo execution, so the
// solo rows of the same baseline section double as the attributed costs
// these physical numbers are saving against.
func ConcurrentMeasure() (map[string]Row, error) {
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
		bq := idx.(core.Engine)
		for _, sel := range Selectivities {
			queries := FixtureQueries(vr, sel, 64)
			name := fmt.Sprintf("Concurrent/%s/sel=%.2f/clients=%d", spec.Label, sel, ConcurrentClients)
			var phys storage.Stats
			start := time.Now()
			for off := 0; off < len(queries); off += ConcurrentClients {
				end := off + ConcurrentClients
				if end > len(queries) {
					end = len(queries)
				}
				members := make([]core.BatchQuery, 0, end-off)
				for _, q := range queries[off:end] {
					members = append(members, core.BatchQuery{Query: q})
				}
				results, st := bq.QueryBatch(members)
				for i, r := range results {
					if r.Err != nil {
						return nil, fmt.Errorf("%s member %d: %w", name, off+i, r.Err)
					}
				}
				phys = phys.Add(st.Physical)
			}
			n := float64(len(queries))
			row := Row{
				NsOp:    float64(time.Since(start).Nanoseconds()) / n,
				PagesOp: float64(phys.Reads) / n,
				SimNsOp: float64(phys.SimElapsed.Nanoseconds()) / n,
			}
			if phys.SimElapsed > 0 {
				row.QPSSim = n / phys.SimElapsed.Seconds()
			}
			rows[name] = row
		}
	}
	return rows, nil
}
