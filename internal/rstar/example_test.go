package rstar_test

import (
	"fmt"

	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// Example shows the 1-D interval use of the R*-tree — the configuration the
// paper's value indexes rely on.
func Example() {
	tree, _ := rstar.New(rstar.Params{})
	// Three temperature intervals of three subfields.
	tree.Insert(rstar.Entry{MBR: rstar.Interval1D(10, 20), Data: 0})
	tree.Insert(rstar.Entry{MBR: rstar.Interval1D(18, 25), Data: 1})
	tree.Insert(rstar.Entry{MBR: rstar.Interval1D(30, 40), Data: 2})
	// Which subfields can contain temperatures in [19, 22]?
	var hits []uint64
	tree.Search(rstar.Interval1D(19, 22), func(e rstar.Entry) bool {
		hits = append(hits, e.Data)
		return true
	})
	fmt.Println(hits)
	// Output: [0 1]
}

// Example_paged persists a tree and searches it through a query context,
// charging every node visit to the simulated disk clock.
func Example_paged() {
	tree, _ := rstar.New(rstar.Params{})
	for i := 0; i < 1000; i++ {
		lo := float64(i)
		tree.Insert(rstar.Entry{MBR: rstar.Interval1D(lo, lo+1.5), Data: uint64(i)})
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 0)
	tree.Persist(pager)
	qc := pager.BeginQuery()
	count := 0
	tree.PagedSearchCtx(qc, rstar.Interval1D(500, 502), func(rstar.Entry) bool {
		count++
		return true
	})
	fmt.Printf("%d matches, %d page reads\n", count, qc.Stats().Reads)
	// Output: 4 matches, 2 page reads
}
