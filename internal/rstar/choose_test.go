package rstar

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// chooseLeafParentOracle is chooseSubtree's level-1 branch as it stood before
// its overlap sums learned to stop early, its sort lost reflection and the
// tree lost its dimensions: every candidate's sum runs over all siblings,
// sort.Slice orders the candidates by index, and the arithmetic is the n-D
// loops' over flat [lo0, hi0, lo1, hi1, ...] bounds, run at one dimension.
// FuzzChooseSubtree holds the tree's version to it.
func chooseLeafParentOracle(n *node, m MBR) int {
	best := 0
	cand := make([]int, len(n.entries))
	for i := range cand {
		cand[i] = i
	}
	const maxCand = 32
	if len(cand) > maxCand {
		enls := make([]float64, len(n.entries))
		for i, e := range n.entries {
			enls[i] = ndEnlargement(e.mbr[:], m[:])
		}
		sort.Slice(cand, func(a, b int) bool { return enls[cand[a]] < enls[cand[b]] })
		cand = cand[:maxCand]
	}
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	union := make([]float64, len(m))
	for _, i := range cand {
		e := n.entries[i]
		copy(union, e.mbr[:])
		ndExtend(union, m[:])
		var overlap float64
		for j := range n.entries {
			if j == i {
				continue
			}
			o := n.entries[j].mbr[:]
			overlap += ndOverlap(union, o) - ndOverlap(e.mbr[:], o)
		}
		enl := ndArea(union) - ndArea(e.mbr[:])
		area := ndArea(e.mbr[:])
		if overlap < bestOverlap ||
			(overlap == bestOverlap && enl < bestEnl) ||
			(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
		}
	}
	return best
}

// ndArea, ndOverlap, ndExtend and ndEnlargement are the n-D MBR methods the
// tree computed with before it became 1-D.
func ndArea(m []float64) float64 {
	a := 1.0
	for d := 0; d < len(m)/2; d++ {
		side := m[2*d+1] - m[2*d]
		if side < 0 {
			return 0
		}
		a *= side
	}
	return a
}

func ndOverlap(m, o []float64) float64 {
	a := 1.0
	for i := 0; i < len(m); i += 2 {
		lo, hi := m[i], m[i+1]
		if o[i] > lo {
			lo = o[i]
		}
		if o[i+1] < hi {
			hi = o[i+1]
		}
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

func ndExtend(m, o []float64) {
	for i := 0; i < len(m); i += 2 {
		if o[i] < m[i] {
			m[i] = o[i]
		}
		if o[i+1] > m[i+1] {
			m[i+1] = o[i+1]
		}
	}
}

func ndEnlargement(m, o []float64) float64 {
	a := 1.0
	for i := 0; i < len(m); i += 2 {
		lo, hi := m[i], m[i+1]
		if o[i] < lo {
			lo = o[i]
		}
		if o[i+1] > hi {
			hi = o[i+1]
		}
		side := hi - lo
		if side < 0 {
			a = 0
			break
		}
		a *= side
	}
	return a - ndArea(m)
}

// tieMBR draws an MBR meant to tie with its neighbours. mix
// weights the draw: its low nibble the share of odd bounds (empty sides,
// ±Inf, NaN, −0), its high nibble the share of copies of an earlier MBR;
// the rest are small integers, nested around shared centres, or arbitrary
// floats.
func tieMBR(rng *rand.Rand, mix byte, earlier []nodeEntry) MBR {
	if len(earlier) > 0 && rng.Intn(16) < int(mix>>4) {
		return earlier[rng.Intn(len(earlier))].mbr
	}
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
	return MBR{lo, hi}
}

// FuzzChooseSubtree: on any node above the leaves — up to a full page of
// children, full of exact ties, duplicates, empty MBRs and ±Inf and NaN
// bounds — the tree's ChooseSubtree picks the child the full-sum oracle
// picks.
func FuzzChooseSubtree(f *testing.F) {
	for _, s := range []struct {
		seed int64
		n    uint8
		mix  byte
	}{
		{1, 5, 0x00}, {2, 33, 0x40}, {3, 169, 0x84}, {4, 101, 0x22},
		{5, 200, 0x0f}, {6, 64, 0xf1}, {7, 255, 0x33}, {8, 90, 0xa8},
	} {
		f.Add(s.seed, s.n, s.mix)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, mix byte) {
		tr, err := New(Params{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		parent := &node{level: 1}
		for range 1 + int(n)%tr.maxFill {
			parent.entries = append(parent.entries, nodeEntry{mbr: tieMBR(rng, mix, parent.entries)})
		}
		for range 4 {
			m := tieMBR(rng, mix, parent.entries)
			if got, want := tr.chooseSubtree(parent, m), chooseLeafParentOracle(parent, m); got != want {
				t.Fatalf("node of %d entries, insert %v: chose %d (%v), oracle %d (%v)",
					len(parent.entries), m, got, parent.entries[got].mbr, want, parent.entries[want].mbr)
			}
		}
	})
}
