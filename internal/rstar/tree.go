package rstar

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fielddb/internal/storage"
)

// Entry is one leaf record: a bounding rectangle and an opaque 64-bit
// payload (fielddb packs subfield ids or cell references into it).
type Entry struct {
	MBR  MBR
	Data uint64
}

type node struct {
	level   int // 0 = leaf
	entries []nodeEntry
}

type nodeEntry struct {
	mbr   MBR
	child *node  // non-nil for inner nodes
	data  uint64 // leaf payload
}

func (n *node) isLeaf() bool { return n.level == 0 }

// mbr returns the bounding interval of all entries of n, empty (+Inf, −Inf)
// when it has none.
func (n *node) mbr() MBR { return groupMBR(n.entries) }

// groupMBR returns the bounding interval of es.
func groupMBR(es []nodeEntry) MBR {
	if len(es) == 0 {
		return MBR{math.Inf(1), math.Inf(-1)}
	}
	m := es[0].mbr
	for _, e := range es[1:] {
		m = m.Union(e.mbr)
	}
	return m
}

// Params tunes the tree. Zero values select the R* paper defaults derived
// from the page size.
type Params struct {
	// PageSize determines node fan-out; defaults to storage.DefaultPageSize.
	PageSize int
	// MinFillRatio is m/M; the R* paper recommends 0.4.
	MinFillRatio float64
	// ReinsertRatio is p/M, the share of entries evicted on first overflow;
	// the R* paper recommends 0.3.
	ReinsertRatio float64
}

func (p Params) withDefaults() Params {
	if p.PageSize <= 0 {
		p.PageSize = storage.DefaultPageSize
	}
	if p.MinFillRatio <= 0 || p.MinFillRatio > 0.5 {
		p.MinFillRatio = 0.4
	}
	if p.ReinsertRatio <= 0 || p.ReinsertRatio >= 1 {
		p.ReinsertRatio = 0.3
	}
	return p
}

// Tree is an in-memory R*-tree that can be persisted to pages.
type Tree struct {
	maxFill int // M: max entries per node
	minFill int // m: min entries per node
	reins   int // p: entries to reinsert on first overflow
	root    *node
	size    int
	params  Params

	// Set by Persist; used by paged search.
	pager    *storage.Pager
	rootPage storage.PageID
	numNodes int
	// Set by OpenPaged: the stored height of a query-only handle.
	pagedHeight int

	// cands is chooseSubtree's scratch: a tree is written by one goroutine at
	// a time.
	cands []candidate
}

// New returns an empty tree.
func New(params Params) (*Tree, error) {
	params = params.withDefaults()
	maxFill := maxEntriesPerNode(params.PageSize)
	if maxFill < 4 {
		return nil, fmt.Errorf("rstar: page size %d too small for a node of 4 entries", params.PageSize)
	}
	minFill := int(float64(maxFill) * params.MinFillRatio)
	if minFill < 1 {
		minFill = 1
	}
	reins := int(float64(maxFill) * params.ReinsertRatio)
	if reins < 1 {
		reins = 1
	}
	return &Tree{
		maxFill: maxFill,
		minFill: minFill,
		reins:   reins,
		root:    &node{level: 0},
		params:  params,
	}, nil
}

// maxEntriesPerNode computes the node fan-out M from the on-page layout:
// an 8-byte header followed by entries of entrySize bytes.
func maxEntriesPerNode(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (a tree with just a root leaf has
// height 1; an empty tree has height 1 as well).
func (t *Tree) Height() int {
	if t.root == nil {
		return t.pagedHeight
	}
	return t.root.level + 1
}

// ErrReadOnlyIndex marks in-memory mutation of a paged-only handle (a tree
// reopened with OpenPaged, whose node structure is not loaded). Callers that
// need an updatable tree should Hydrate the handle first. The message keeps
// the exact wording Insert has always returned, so errors.Is works without
// breaking string matches.
var ErrReadOnlyIndex = errors.New("paged-only handle; Insert unavailable")

// Insert adds an entry using the full R* insertion algorithm.
func (t *Tree) Insert(e Entry) error {
	if t.root == nil {
		return fmt.Errorf("rstar: tree is a %w", ErrReadOnlyIndex)
	}
	// Bit level of overflowed marks a level that already did a forced
	// reinsert during this insertion (OverflowTreatment is called at most once
	// per level per insert, R* paper §4.3); a tree is far below 64 levels.
	var overflowed uint64
	t.insertAtLevel(nodeEntry{mbr: e.MBR, data: e.Data}, 0, &overflowed)
	t.size++
	return nil
}

// insertAtLevel routes the entry to a node at the given level (0 = leaf) and
// handles overflow.
func (t *Tree) insertAtLevel(e nodeEntry, level int, overflowed *uint64) {
	// The path lives in this frame: a forced reinsert inserts again while it
	// is live, and a tree taller than the array only costs an allocation.
	var buf [8]*node
	path := t.choosePath(buf[:0], e.mbr, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	t.handleOverflow(path, overflowed)
}

// choosePath descends from the root to a node at targetLevel using the R*
// ChooseSubtree criterion and appends the nodes along the way to path.
func (t *Tree) choosePath(path []*node, m MBR, targetLevel int) []*node {
	path = append(path, t.root)
	n := t.root
	for n.level > targetLevel {
		idx := t.chooseSubtree(n, m)
		n.entries[idx].mbr = n.entries[idx].mbr.Union(m)
		n = n.entries[idx].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree returns the index of the child of n best suited to absorb m.
// If the children are leaves, R* minimizes overlap enlargement (resolving
// ties by area enlargement, then area); otherwise it minimizes area
// enlargement (ties by area).
func (t *Tree) chooseSubtree(n *node, m MBR) int {
	best := 0
	if n.level == 1 {
		// Computing overlap enlargement against every sibling is O(M²);
		// the R* paper's own optimization considers only the 32 entries
		// with the least area enlargement.
		cand := t.cands[:0]
		for i := range n.entries {
			cand = append(cand, candidate{i: i})
		}
		t.cands = cand
		const maxCand = 32
		if len(cand) > maxCand {
			for k := range cand {
				cand[k].enl = n.entries[k].mbr.Enlargement(m)
			}
			slices.SortFunc(cand, func(a, b candidate) int { return compareFloats(a.enl, b.enl) })
			cand = cand[:maxCand]
		}
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for _, c := range cand {
			i := c.i
			e := n.entries[i]
			union := e.mbr.Union(m)
			enl := union.Area() - e.mbr.Area()
			area := e.mbr.Area()
			winsTie := enl < bestEnl || (enl == bestEnl && area < bestArea)
			wins := func(overlap float64) bool {
				return overlap < bestOverlap || (overlap == bestOverlap && winsTie)
			}
			// The sum stops as soon as it cannot win. union covers e, and
			// IEEE rounding is monotone, so every term is >= 0 or NaN: a
			// partial sum never falls, and a NaN one stays NaN and never wins.
			// A partial sum above bestOverlap, NaN, or at it while losing the
			// tie on (enl, area) makes the full sum lose as well.
			var overlap float64
			for j := range n.entries {
				if j == i {
					continue
				}
				o := n.entries[j].mbr
				overlap += union.OverlapArea(o) - e.mbr.OverlapArea(o)
				if !wins(overlap) {
					break
				}
			}
			if wins(overlap) {
				best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		enl := e.mbr.Enlargement(m)
		area := e.mbr.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// candidate is one child weighed by chooseSubtree: its index and, when the
// children are too many to weigh all, its enlargement.
type candidate struct {
	enl float64
	i   int
}

// compareFloats returns < 0 exactly when a < b. The tree's sorts compare
// through it, so slices.SortFunc gets the answers sort.Slice's less functions
// gave and, running the same pdqsort, makes the same permutation, ties and
// NaNs included. cmp.Compare would not: it sorts NaN first.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// handleOverflow walks the path bottom-up resolving overflowing nodes by
// forced reinsertion (first overflow on a level) or splitting.
func (t *Tree) handleOverflow(path []*node, overflowed *uint64) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.maxFill {
			t.tightenPath(path[:i+1])
			continue
		}
		isRoot := i == 0
		if bit := uint64(1) << n.level; !isRoot && *overflowed&bit == 0 {
			*overflowed |= bit
			t.reinsert(n, path[:i+1], overflowed)
			// reinsert may grow ancestors; they are handled as the loop
			// continues upward (their lengths are re-checked).
			continue
		}
		// split mutates n in place to hold the left group (so saved paths
		// stay valid) and returns the new right sibling.
		right := t.split(n)
		if isRoot {
			newRoot := &node{level: n.level + 1}
			newRoot.entries = append(newRoot.entries,
				nodeEntry{mbr: n.mbr(), child: n},
				nodeEntry{mbr: right.mbr(), child: right},
			)
			t.root = newRoot
			return
		}
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].mbr = n.mbr()
				break
			}
		}
		parent.entries = append(parent.entries, nodeEntry{mbr: right.mbr(), child: right})
	}
}

// tightenPath recomputes the parent MBRs along the path, in place, so
// ancestors stay minimal after reinsertion removed entries below them.
func (t *Tree) tightenPath(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].mbr = child.mbr()
				break
			}
		}
	}
}

// reinsert implements R* forced reinsertion: remove the p entries whose
// centers are farthest from the node MBR's center and insert them again at
// the same level (far-reinsert order: farthest first).
func (t *Tree) reinsert(n *node, path []*node, overflowed *uint64) {
	center := n.mbr().Center()
	type distEntry struct {
		dist float64
		e    nodeEntry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		diff := e.mbr.Center() - center
		des[i] = distEntry{dist: diff * diff, e: e}
	}
	slices.SortFunc(des, func(a, b distEntry) int { return compareFloats(b.dist, a.dist) })
	p := t.reins
	if p >= len(des) {
		p = len(des) - 1
	}
	evicted := make([]nodeEntry, p)
	for i := 0; i < p; i++ {
		evicted[i] = des[i].e
	}
	n.entries = n.entries[:0]
	for i := p; i < len(des); i++ {
		n.entries = append(n.entries, des[i].e)
	}
	t.tightenPath(path)
	for _, e := range evicted {
		t.insertAtLevel(e, n.level, overflowed)
	}
}

// split implements the R* split on the one axis: of the distributions of
// the entries sorted by lower bound and by upper bound, choose the one with
// minimal overlap (ties by area). n is mutated in place to carry the left
// group; the returned node carries the right group.
func (t *Tree) split(n *node) *node {
	M := len(n.entries) - 1 // entries currently M+1
	minK := t.minFill
	numDistr := M - 2*minK + 2
	if numDistr < 1 {
		minK = 1
		numDistr = M - 2*minK + 2
	}

	byLo := slices.Clone(n.entries)
	slices.SortFunc(byLo, func(x, y nodeEntry) int {
		if x.mbr[0] != y.mbr[0] {
			return compareFloats(x.mbr[0], y.mbr[0])
		}
		return compareFloats(x.mbr[1], y.mbr[1])
	})
	byHi := slices.Clone(n.entries)
	slices.SortFunc(byHi, func(x, y nodeEntry) int {
		if x.mbr[1] != y.mbr[1] {
			return compareFloats(x.mbr[1], y.mbr[1])
		}
		return compareFloats(x.mbr[0], y.mbr[0])
	})

	// When every distribution's overlap or area is infinite or NaN (±Inf
	// bounds) none beats the start, and the first one stands.
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	bestSorted, bestSplit := byLo, minK
	for _, sorted := range [][]nodeEntry{byLo, byHi} {
		for k := 0; k < numDistr; k++ {
			splitAt := minK + k
			m1, m2 := groupMBR(sorted[:splitAt]), groupMBR(sorted[splitAt:])
			overlap := m1.OverlapArea(m2)
			area := m1.Area() + m2.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestSorted, bestSplit = sorted, splitAt
			}
		}
	}

	right := &node{level: n.level}
	right.entries = append(right.entries, bestSorted[bestSplit:]...)
	n.entries = n.entries[:0]
	n.entries = append(n.entries, bestSorted[:bestSplit]...)
	return right
}

// Search visits every entry whose MBR intersects query, in memory.
// Returning false from fn stops the search.
func (t *Tree) Search(query MBR, fn func(Entry) bool) {
	if t.root == nil {
		panic("rstar: Search on a paged-only handle; use PagedSearch")
	}
	t.searchNode(t.root, query, fn)
}

func (t *Tree) searchNode(n *node, query MBR, fn func(Entry) bool) bool {
	for _, e := range n.entries {
		if !e.mbr.Intersects(query) {
			continue
		}
		if n.isLeaf() {
			if !fn(Entry{MBR: e.mbr, Data: e.data}) {
				return false
			}
		} else if !t.searchNode(e.child, query, fn) {
			return false
		}
	}
	return true
}

// Delete removes one entry exactly matching (MBR, Data). It returns false if
// no such entry exists. Underfull nodes are dissolved and their remaining
// entries reinserted (the classic R-tree CondenseTree treatment).
func (t *Tree) Delete(e Entry) bool {
	if t.root == nil {
		return false
	}
	var path []*node
	leaf, idx := t.findLeaf(t.root, e, &path)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(append(path, leaf))
	// Shrink the root if it has a single child and is not a leaf.
	for !t.root.isLeaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	return true
}

func (t *Tree) findLeaf(n *node, e Entry, path *[]*node) (*node, int) {
	if n.isLeaf() {
		for i, ne := range n.entries {
			if ne.data == e.Data && ne.mbr == e.MBR {
				return n, i
			}
		}
		return nil, -1
	}
	// A parent's bounds are the min/max union of its children's, so every
	// ancestor of the entry contains it; Intersects would miss an empty
	// (lo > hi) MBR, which nothing intersects.
	for _, ne := range n.entries {
		if !ne.mbr.Contains(e.MBR) {
			continue
		}
		*path = append(*path, n)
		if leaf, i := t.findLeaf(ne.child, e, path); leaf != nil {
			return leaf, i
		}
		*path = (*path)[:len(*path)-1]
	}
	return nil, -1
}

// condense removes underfull nodes along the path and reinserts their
// orphaned entries.
func (t *Tree) condense(path []*node) {
	var orphans []nodeEntry
	var orphanLevels []int
	for i := len(path) - 1; i >= 1; i-- {
		n, parent := path[i], path[i-1]
		if len(n.entries) < t.minFill {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, e)
				orphanLevels = append(orphanLevels, n.level)
			}
		} else {
			t.tightenPath(path[:i+1])
		}
	}
	t.tightenPath(path[:1])
	for i, e := range orphans {
		var overflowed uint64
		t.insertAtLevel(e, orphanLevels[i], &overflowed)
	}
}

// Renumber replaces every leaf payload d with to(d), in one walk over the
// leaves; bounds and shape are untouched. A paged-only handle has no leaves in
// memory to rewrite: Hydrate it first.
func (t *Tree) Renumber(to func(uint64) uint64) {
	if t.root == nil {
		panic("rstar: Renumber on a paged-only handle; Hydrate it first")
	}
	renumber(t.root, to)
}

func renumber(n *node, to func(uint64) uint64) {
	for i := range n.entries {
		if e := &n.entries[i]; n.isLeaf() {
			e.data = to(e.data)
		} else {
			renumber(e.child, to)
		}
	}
}

// CheckInvariants validates structural invariants; it is used by tests and
// returns a descriptive error when the tree is malformed.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rstar: paged-only handle has no in-memory nodes")
	}
	var walk func(n *node, isRoot bool) (int, error)
	walk = func(n *node, isRoot bool) (int, error) {
		if len(n.entries) > t.maxFill {
			return 0, fmt.Errorf("node at level %d has %d > M=%d entries", n.level, len(n.entries), t.maxFill)
		}
		if !isRoot && len(n.entries) < t.minFill {
			return 0, fmt.Errorf("node at level %d has %d < m=%d entries", n.level, len(n.entries), t.minFill)
		}
		if n.isLeaf() {
			return len(n.entries), nil
		}
		total := 0
		for _, e := range n.entries {
			if e.child == nil {
				return 0, fmt.Errorf("inner entry without child at level %d", n.level)
			}
			if e.child.level != n.level-1 {
				return 0, fmt.Errorf("child level %d under node level %d", e.child.level, n.level)
			}
			if want := e.child.mbr(); e.mbr != want {
				return 0, fmt.Errorf("stale parent MBR %v, child covers %v", e.mbr, want)
			}
			c, err := walk(e.child, false)
			if err != nil {
				return 0, err
			}
			total += c
		}
		return total, nil
	}
	n, err := walk(t.root, true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("size %d but %d leaf entries", t.size, n)
	}
	return nil
}
