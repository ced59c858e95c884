//go:build !race

package fielddb_test

import (
	"path/filepath"
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
// not count. Either of two coming back fails a ceiling: pool frames holding
// copies of the pages (measured 21.1 MiB, 14.6k objects), or a point-query
// tree for a DEM (14.0 MiB, 12.8k objects; 19.9 MiB, 80k objects with its
// nodes in memory).
func TestAllocCeilingsHeap(t *testing.T) {
	const mibCeiling, objectCeiling = 13, 30_000 // measured: 11.0 MiB, 12.1k objects
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

// TestAllocCeilingsHeapStored bounds what a reopened stored tiled index keeps
// live: the 256² fixture as 64-cell LinearScan tiles with packed sidecars,
// saved, then opened behind a 256-page pool and run through one rotation of
// the fixture's queries, measured as a difference the way
// TestAllocCeilingsHeap measures. What is left is the pool's frames, each
// tile's cell ids and its heap and sidecar page tables: a heap file addresses
// its records by page, so a record id per cell coming back (0.5 MiB) fails the
// ceiling.
func TestAllocCeilingsHeapStored(t *testing.T) {
	const mibCeiling = 1.8 // measured: 1.57 MiB (2.05 with a record id per cell)
	path := filepath.Join(t.TempDir(), "tiled.fidx")
	saveTiled := func() {
		f, err := workload.Terrain(256, 4217)
		if err != nil {
			t.Fatal(err)
		}
		db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.LinearScan, TileSide: 64, SidecarCodec: "packed"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.SaveIndex(path); err != nil {
			t.Fatal(err)
		}
	}
	saveTiled()
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(f.ValueRange(), 0.05, 64, 4217+int64(0.05*1e6))
	f = nil
	before := liveHeap()
	si, err := fielddb.OpenIndexWith(path, fielddb.OpenIndexOptions{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	for _, q := range queries {
		if _, err := si.ValueQuery(q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(si)
	mib := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	t.Logf("%.2f MiB live (ceiling %.2f MiB)", mib, mibCeiling)
	if mib > mibCeiling {
		t.Errorf("a reopened stored tiled index keeps %.2f MiB live; ceiling %.2f MiB", mib, mibCeiling)
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
