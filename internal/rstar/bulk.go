package rstar

import (
	"fmt"
	"slices"
)

// BulkLoad builds a packed tree bottom-up from pre-sorted entries, in the
// style of Kamel & Faloutsos ("On packing R-trees", CIKM 1993): entries are
// ordered by a space-filling-curve key and packed into full leaves, then
// parent levels are packed on top until a single root remains.
//
// Entries are sorted stably by cmp, which returns < 0 when a sorts before b;
// if cmp is nil, by the center of their interval.
//
// fillRatio in (0, 1] controls leaf packing; the classic packed load uses 1.0.
// dims must be 1: the tree indexes value intervals only.
func BulkLoad(dims int, params Params, entries []Entry, cmp func(a, b Entry) int, fillRatio float64) (*Tree, error) {
	if dims != 1 {
		return nil, fmt.Errorf("rstar: %d-D bulk load, the tree is 1-D", dims)
	}
	t, err := New(params)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	if fillRatio <= 0 || fillRatio > 1 {
		fillRatio = 1
	}
	perNode := int(float64(t.maxFill) * fillRatio)
	if perNode < 2 {
		perNode = 2
	}

	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	if cmp == nil {
		cmp = func(a, b Entry) int { return compareFloats(a.MBR.Center(), b.MBR.Center()) }
	}
	slices.SortStableFunc(sorted, cmp)

	// Pack leaves. Groups are sized evenly (rather than cutting full nodes
	// and leaving a deficient tail) so every node satisfies the min-fill
	// invariant.
	bounds := evenGroups(len(sorted), perNode)
	level := make([]*node, 0, len(bounds))
	for _, g := range bounds {
		n := &node{level: 0}
		for _, e := range sorted[g[0]:g[1]] {
			n.entries = append(n.entries, nodeEntry{mbr: e.MBR, data: e.Data})
		}
		level = append(level, n)
	}

	// Pack parents until one node remains.
	h := 0
	for len(level) > 1 {
		h++
		next := make([]*node, 0, len(level)/perNode+1)
		for _, g := range evenGroups(len(level), perNode) {
			p := &node{level: h}
			for _, child := range level[g[0]:g[1]] {
				p.entries = append(p.entries, nodeEntry{mbr: child.mbr(), child: child})
			}
			next = append(next, p)
		}
		level = next
	}
	t.root = level[0]
	t.size = len(sorted)
	return t, nil
}

// evenGroups splits n items into ceil(n/perGroup) contiguous groups whose
// sizes differ by at most one, returned as [start, end) pairs.
func evenGroups(n, perGroup int) [][2]int {
	numGroups := (n + perGroup - 1) / perGroup
	if numGroups < 1 {
		numGroups = 1
	}
	base := n / numGroups
	rem := n % numGroups
	out := make([][2]int, 0, numGroups)
	start := 0
	for g := 0; g < numGroups; g++ {
		size := base
		if g < rem {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}
