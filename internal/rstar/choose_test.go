package rstar

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// chooseLeafParentOracle is chooseSubtree's level-1 branch as it stood before
// its overlap sums learned to stop early and its sort lost reflection: every
// candidate's sum runs over all siblings, and sort.Slice orders the
// candidates. FuzzChooseSubtree holds the tree's version to it.
func chooseLeafParentOracle(t *Tree, n *node, m MBR) int {
	best := 0
	cand := make([]int, len(n.entries))
	for i := range cand {
		cand[i] = i
	}
	const maxCand = 32
	if len(cand) > maxCand {
		enls := make([]float64, len(n.entries))
		for i, e := range n.entries {
			enls[i] = e.mbr.Enlargement(m)
		}
		sort.Slice(cand, func(a, b int) bool { return enls[cand[a]] < enls[cand[b]] })
		cand = cand[:maxCand]
	}
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	union := make(MBR, 2*t.dims)
	for _, i := range cand {
		e := n.entries[i]
		copy(union, e.mbr)
		union.ExtendInPlace(m)
		var overlap float64
		for j := range n.entries {
			if j == i {
				continue
			}
			o := n.entries[j].mbr
			overlap += union.OverlapArea(o) - e.mbr.OverlapArea(o)
		}
		enl := union.Area() - e.mbr.Area()
		area := e.mbr.Area()
		if overlap < bestOverlap ||
			(overlap == bestOverlap && enl < bestEnl) ||
			(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
		}
	}
	return best
}

// tieMBR draws a dims-dimensional MBR meant to tie with its neighbours. mix
// weights the draw: its low nibble the share of odd bounds (empty sides,
// ±Inf, NaN, −0), its high nibble the share of copies of an earlier MBR;
// the rest are small integers, nested around shared centres, or arbitrary
// floats.
func tieMBR(rng *rand.Rand, dims int, mix byte, earlier []nodeEntry) MBR {
	if len(earlier) > 0 && rng.Intn(16) < int(mix>>4) {
		return earlier[rng.Intn(len(earlier))].mbr.Clone()
	}
	m := make(MBR, 2*dims)
	for d := 0; d < dims; d++ {
		var lo, hi float64
		switch r := rng.Intn(3); {
		case r == 0:
			lo = float64(rng.Intn(12))
			hi = lo + float64(rng.Intn(4))
		case r == 1:
			c, w := float64(rng.Intn(12)), float64(rng.Intn(6))
			lo, hi = c-w, c+w
		default:
			lo = rng.Float64() * 12
			hi = lo + rng.Float64()*4
		}
		if rng.Intn(32) < int(mix&15) {
			odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
			switch rng.Intn(4) {
			case 0:
				lo, hi = math.Inf(1), math.Inf(-1)
			case 1:
				lo = odd[rng.Intn(len(odd))]
			case 2:
				hi = odd[rng.Intn(len(odd))]
			default:
				lo, hi = odd[rng.Intn(len(odd))], odd[rng.Intn(len(odd))]
			}
		}
		m[2*d], m[2*d+1] = lo, hi
	}
	return m
}

// FuzzChooseSubtree: on any node above the leaves — 1-D or 2-D, up to a
// full page of children, full of exact ties, duplicates, empty MBRs and
// ±Inf and NaN bounds — the tree's ChooseSubtree picks the child the
// full-sum oracle picks.
func FuzzChooseSubtree(f *testing.F) {
	for _, s := range []struct {
		seed int64
		n    uint8
		twoD bool
		mix  byte
	}{
		{1, 5, false, 0x00}, {2, 33, false, 0x40}, {3, 169, false, 0x84},
		{4, 101, true, 0x22}, {5, 200, true, 0x0f}, {6, 64, false, 0xf1},
		{7, 255, false, 0x33}, {8, 90, true, 0xa8},
	} {
		f.Add(s.seed, s.n, s.twoD, s.mix)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, twoD bool, mix byte) {
		dims := 1
		if twoD {
			dims = 2
		}
		tr, err := New(dims, Params{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		parent := &node{level: 1}
		for range 1 + int(n)%tr.maxFill {
			parent.entries = append(parent.entries, nodeEntry{mbr: tieMBR(rng, dims, mix, parent.entries)})
		}
		for range 4 {
			m := tieMBR(rng, dims, mix, parent.entries)
			if got, want := tr.chooseSubtree(parent, m), chooseLeafParentOracle(tr, parent, m); got != want {
				t.Fatalf("%d-D node of %d entries, insert %v: chose %d (%v), oracle %d (%v)",
					dims, len(parent.entries), m, got, parent.entries[got].mbr, want, parent.entries[want].mbr)
			}
		}
	})
}
