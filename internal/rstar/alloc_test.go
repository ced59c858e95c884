//go:build !race

// The race detector changes allocation counts: the ceiling holds in a plain
// build only.

package rstar

import (
	"math/rand"
	"runtime"
	"testing"

	"fielddb/internal/storage"
)

// TestInsertAllocations: an insert allocates only its share of a split's or
// a forced reinsert's nodes and sort copies, one insert in tens (measured:
// 0.07 on average): bounds are values, and ChooseSubtree's candidates live in
// the tree's scratch. An allocation per insert or per weighed sibling makes
// it one or more.
func TestInsertAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := make([]Entry, 30000)
	for i := range entries {
		lo := rng.Float64() * 1e6
		entries[i] = Entry{MBR: Interval1D(lo, lo+rng.Float64()*1e3), Data: uint64(i)}
	}
	tr, err := New(Params{})
	if err != nil {
		t.Fatal(err)
	}
	// testing.AllocsPerRun rounds the mean down to a whole count; this is the
	// mean itself.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range entries {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(len(entries))
	t.Logf("%.3f allocs per insert", got)
	if got > 0.5 {
		t.Errorf("%.3f allocs per insert, want at most 0.5", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSearcherAllocatesNothing: a Searcher kept from one paged search to the
// next — as a query's pooled probe keeps one — allocates nothing once a first
// search has sized it; PagedSearchCtx allocates its state on every call.
func TestSearcherAllocatesNothing(t *testing.T) {
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{MBR: Interval1D(float64(i), float64(i)+2), Data: uint64(i)}
	}
	tr, err := BulkLoad(1, Params{PageSize: 512}, entries, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewPager(storage.NewMemDisk(512), storage.DefaultDiskModel, 64)
	if err := tr.Persist(pager); err != nil {
		t.Fatal(err)
	}
	qc := pager.BeginQuery()
	defer qc.Recycle()
	var s Searcher
	query := MBR{1000, 3500}
	n := 0
	visit := func(Entry) bool { n++; return true }
	search := func() {
		if err := s.Search(tr, qc, query, visit); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if got := testing.AllocsPerRun(20, search); got != 0 {
		t.Errorf("a reused Searcher allocates %.0f per search, want 0", got)
	}
	if n == 0 {
		t.Fatal("the search visited nothing")
	}
}
