//go:build !race

// The race detector changes allocation counts: the ceiling holds in a plain
// build only.

package rstar

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestInsertAllocations: an insert allocates a handful of times — its own
// MBR, ChooseSubtree's candidate arrays and their sort — plus a split's or a
// forced reinsert's share, one insert in tens (measured: 8.8 on average). An
// MBR per sibling whose enlargement is weighed, or per split distribution,
// makes it over a hundred.
func TestInsertAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := make([]Entry, 30000)
	for i := range entries {
		lo := rng.Float64() * 1e6
		entries[i] = Entry{MBR: Interval1D(lo, lo+rng.Float64()*1e3), Data: uint64(i)}
	}
	tr, err := New(1, Params{})
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
	if got > 16 {
		t.Errorf("%.3f allocs per insert, want at most 16", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
