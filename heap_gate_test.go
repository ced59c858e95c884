//go:build !race

package fielddb_test

import (
	"runtime"
	"testing"

	"fielddb"
	"fielddb/internal/workload"
)

// TestAllocCeilingsHeap bounds what an in-memory field keeps live: the 256²
// fixture opened through the facade, as opened by default, after one rotation
// of the fixture's queries has filled its buffer pool. The pages are held
// once — the pool's frames lend the in-memory disk's images — and a DEM
// locates points by its lattice, with no R*-tree, so the live heap is the
// field, the pages and what indexes them. Measured after two collections (the
// second empties the sync.Pools the first moved to their victim caches), as a
// difference from before the fixture was made, so other tests' leftovers do
// not count. Any of three coming back fails a ceiling: pool frames holding
// copies of the pages (measured 21.1 MiB, 14.6k objects), the spatial tree's
// nodes kept in memory (19.9 MiB, 80k objects), or a DEM's point-query tree
// at all (14.0 MiB, 12.8k objects).
func TestAllocCeilingsHeap(t *testing.T) {
	const mibCeiling, objectCeiling = 13, 30_000 // measured: 11.5 MiB, 12.1k objects
	before := liveHeap()
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range workload.Queries(f.ValueRange(), 0.05, 64, 4217+int64(0.05*1e6)) {
		if _, err := db.ValueQuery(q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.PointQuery(f.Bounds().Center()); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(db)
	mib := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%.1f MiB, %d objects live (ceilings %d MiB, %d)", mib, objects, mibCeiling, objectCeiling)
	if mib > mibCeiling || objects > objectCeiling {
		t.Errorf("an open 256² field keeps %.1f MiB in %d objects live; ceilings %d MiB, %d", mib, objects, mibCeiling, objectCeiling)
	}
}

// liveHeap reads the heap after two collections.
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
