package storage

import "testing"

// TestChargeMatchesRead is the contract of the batch executor's attribution
// plane: charging a page sequence without moving data produces exactly the
// statistics that reading the same sequence would — reads, the
// sequential/random split, cache hits, and the simulated clock alike.
func TestChargeMatchesRead(t *testing.T) {
	const pages = 64
	newStore := func() *Pager {
		d := NewMemDisk(128)
		for i := 0; i < pages; i++ {
			d.Alloc()
		}
		return NewPager(d, DefaultDiskModel, 8)
	}
	// Sequences exercising every accounting transition: runs, single pages,
	// backward jumps, and revisits that hit the per-query LRU view.
	sequences := [][2]PageID{
		{0, 9}, {10, 10}, {40, 45}, {5, 7}, {41, 44}, {63, 63}, {0, 2},
	}

	read := newStore().BeginQuery()
	for _, s := range sequences {
		err := read.ReadRun(s[0], s[1], func(PageID, []byte) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}

	charged := newStore().BeginQuery()
	for _, s := range sequences {
		charged.ChargeRun(s[0], s[1])
	}
	if got, want := charged.LocalStats(), read.LocalStats(); got != want {
		t.Fatalf("ChargeRun stats %+v != ReadRun stats %+v", got, want)
	}

	// ChargePage page by page is ChargeRun unrolled.
	paged := newStore().BeginQuery()
	for _, s := range sequences {
		for id := s[0]; id <= s[1]; id++ {
			paged.ChargePage(id)
		}
	}
	if got, want := paged.LocalStats(), read.LocalStats(); got != want {
		t.Fatalf("ChargePage stats %+v != ReadRun stats %+v", got, want)
	}
}

// TestChargePublishes checks charged pages flow into the pager totals on
// Stats() exactly like read pages, preserving the invariant that the pager's
// cumulative statistics equal the sum of the published per-query statistics.
func TestChargePublishes(t *testing.T) {
	d := NewMemDisk(128)
	for i := 0; i < 8; i++ {
		d.Alloc()
	}
	p := NewPager(d, DefaultDiskModel, 4)
	qc := p.BeginQuery()
	qc.ChargeRun(0, 5)
	published := qc.Stats()
	if p.Stats() != published {
		t.Fatalf("pager totals %+v != published %+v", p.Stats(), published)
	}
	// An unpublished context leaves the totals untouched.
	p.BeginQuery().ChargeRun(0, 5)
	if p.Stats() != published {
		t.Fatalf("unpublished charges leaked into pager totals: %+v", p.Stats())
	}
}

// TestRecycledContextStartsCold: a context back from the pool — a query's or
// a fork, on a pager with a pool or without — charges exactly what a fresh
// one does: no page its last query read, and the epoch it is given.
func TestRecycledContextStartsCold(t *testing.T) {
	d := NewMemDisk(128)
	for i := 0; i < 16; i++ {
		d.Alloc()
	}
	pooled, cold := NewPager(d, DefaultDiskModel, 8), NewPager(d, DefaultDiskModel, 0)
	read := func(qc *QueryCtx) Stats {
		for _, r := range [][2]PageID{{0, 5}, {3, 9}} { // a revisit of 3-5
			if err := qc.ReadRun(r[0], r[1], func(PageID, []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		return qc.LocalStats()
	}
	for _, p := range []*Pager{pooled, cold, pooled} {
		want := read(&QueryCtx{pager: p, lastPage: InvalidPage, seen: pageLRU{slot: map[PageID]int32{}, capacity: p.poolSize}})
		for range 3 {
			qc := p.BeginQuery()
			if got := read(qc); got != want {
				t.Fatalf("pool %d: a recycled context charged %+v, a fresh one %+v", p.poolSize, got, want)
			}
			fork := qc.Fork()
			if got := read(fork); got != want || fork.Epoch() != qc.Epoch() {
				t.Fatalf("pool %d: a recycled fork charged %+v at epoch %d, a fresh context %+v at %d", p.poolSize, got, fork.Epoch(), want, qc.Epoch())
			}
			qc.Merge(fork)
			fork.Recycle()
			qc.Stats()
			qc.Recycle()
		}
	}
}

// TestMergeAccountsInItemOrder: runs read on forks — in any order — and
// merged back in item order account exactly as the runs read one after
// another on the parent: a fork's first page is sequential when it continues
// the page read before it, a fork that read nothing changes nothing, and the
// parent's clock goes on from the last merged read.
func TestMergeAccountsInItemOrder(t *testing.T) {
	d := NewMemDisk(128)
	for i := 0; i < 32; i++ {
		d.Alloc()
	}
	p := NewPager(d, DefaultDiskModel, 0)
	read := func(qc *QueryCtx, first, last PageID) {
		if err := qc.ReadRun(first, last, func(PageID, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	runs := [][2]PageID{{0, 3}, {4, 7}, {}, {12, 15}, {16, 16}} // the third item reads nothing
	seq := p.BeginQuery()
	defer seq.Release()
	par := p.BeginQuery()
	defer par.Release()
	forks := make([]*QueryCtx, len(runs))
	for i, r := range runs {
		forks[i] = par.Fork()
		if r != ([2]PageID{}) {
			read(seq, r[0], r[1])
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if r := runs[i]; r != ([2]PageID{}) {
			read(forks[i], r[0], r[1])
		}
	}
	for _, f := range forks {
		par.Merge(f)
	}
	read(seq, 17, 17)
	read(par, 17, 17)
	if got, want := par.LocalStats(), seq.LocalStats(); got != want || want.SeqReads != 12 {
		t.Fatalf("merged forks account %+v, the runs read in order %+v", got, want)
	}
}
