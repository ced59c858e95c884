// Package subfield implements the paper's core idea (§3.1): dividing a
// continuous field into subfields — runs of spatially adjacent cells whose
// values are similar — so that only the few subfield intervals need to be
// indexed instead of every cell interval.
//
// Cells are linearized by the Hilbert value of their centers and grouped
// greedily under the cost model of §3.1.2: a subfield of interval size I has
// access probability P proportional to I, and its cost is C = P / SI where
// SI is the sum of the member cells' interval sizes. A cell is appended to
// the current subfield only while the append does not increase the cost.
package subfield

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/sfc"
)

// CellRef is the per-cell summary used during subfield construction: the
// cell's id, its linearization key (the Hilbert value of its center) and its
// value interval.
type CellRef struct {
	ID       field.CellID
	Key      uint64
	Interval geom.Interval
}

// Linearize computes each cell's curve key and returns the refs sorted by
// key (ties broken by cell id, so the order is total and deterministic).
func Linearize(f field.Field, curve *sfc.Hilbert) ([]CellRef, error) {
	return LinearizeWorkers(f, curve, 1)
}

// LinearizeWorkers is Linearize with the per-cell key computation spread
// over up to workers goroutines. Each worker fills a disjoint chunk of the
// refs slice, so the result is identical to the single-threaded order
// regardless of workers. Field implementations must allow concurrent Cell
// calls (both grid.DEM and tin.TIN are read-only after construction).
func LinearizeWorkers(f field.Field, curve *sfc.Hilbert, workers int) ([]CellRef, error) {
	mapper, err := sfc.NewMapper(curve, f.Bounds())
	if err != nil {
		return nil, fmt.Errorf("subfield: %w", err)
	}
	n := f.NumCells()
	refs := make([]CellRef, n)
	fill := func(lo, hi int) {
		var c field.Cell
		for id := lo; id < hi; id++ {
			f.Cell(field.CellID(id), &c)
			refs[id] = CellRef{
				ID:       field.CellID(id),
				Key:      mapper.Index(c.Center()),
				Interval: c.Interval(),
			}
		}
	}
	// Chunks below ~4k cells are dominated by goroutine overhead.
	if workers > n/4096 {
		workers = n / 4096
	}
	if workers <= 1 {
		fill(0, n)
	} else {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fill(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	slices.SortFunc(refs, func(a, b CellRef) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return refs, nil
}

// CostModel is the paper's subfield cost model. The interval size of an
// interval [lo, hi] is hi - lo + Epsilon; the paper's worked example
// (Figure 5: cost 21/45 before inserting c5, 31/58 after) uses Epsilon = 1,
// which also covers the degenerate constant-value cell (size 1).
// C(subfield) = size(subfield interval) / Σ size(cell intervals).
type CostModel struct {
	// Epsilon is the additive constant of the interval size; it plays the
	// role of the average query length term in P = L + 0.5 of Kamel &
	// Faloutsos. The paper's example uses 1.
	Epsilon float64
}

// DefaultCostModel reproduces the paper's worked example.
var DefaultCostModel = CostModel{Epsilon: 1}

// Size returns the interval size I = length + Epsilon.
func (m CostModel) Size(iv geom.Interval) float64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Length() + m.Epsilon
}

// Cost returns C = size(sf) / sumSizes for a subfield with the given
// interval and member size sum.
func (m CostModel) Cost(sf geom.Interval, sumSizes float64) float64 {
	if sumSizes <= 0 {
		return 0
	}
	return m.Size(sf) / sumSizes
}

// Group is one subfield: a contiguous run refs[Start:End) of the linearized
// cell order, plus its aggregate value interval.
type Group struct {
	Start, End int
	Interval   geom.Interval
}

// Len returns the number of cells in the group.
func (g Group) Len() int { return g.End - g.Start }

// BuildGreedy forms subfields by scanning the linearized refs once and
// appending each cell to the current subfield only if the subfield's cost
// does not increase (Ca > Cb), exactly the strategy of §3.1.2.
func BuildGreedy(refs []CellRef, cm CostModel) []Group {
	if len(refs) == 0 {
		return nil
	}
	var groups []Group
	cur := Group{Start: 0, End: 1, Interval: refs[0].Interval}
	sumSizes := cm.Size(refs[0].Interval)
	for i := 1; i < len(refs); i++ {
		union := cur.Interval.Union(refs[i].Interval)
		ca := cm.Cost(cur.Interval, sumSizes)
		cb := cm.Cost(union, sumSizes+cm.Size(refs[i].Interval))
		if ca > cb {
			cur.End = i + 1
			cur.Interval = union
			sumSizes += cm.Size(refs[i].Interval)
			continue
		}
		groups = append(groups, cur)
		cur = Group{Start: i, End: i + 1, Interval: refs[i].Interval}
		sumSizes = cm.Size(refs[i].Interval)
	}
	return append(groups, cur)
}

// Validate checks that groups exactly tile refs and that every group
// interval covers its members. It returns nil for a well-formed partition.
func Validate(refs []CellRef, groups []Group) error {
	pos := 0
	for gi, g := range groups {
		if g.Start != pos {
			return fmt.Errorf("subfield: group %d starts at %d, want %d", gi, g.Start, pos)
		}
		if g.End <= g.Start {
			return fmt.Errorf("subfield: group %d is empty", gi)
		}
		if g.End > len(refs) {
			return fmt.Errorf("subfield: group %d ends at %d beyond %d refs", gi, g.End, len(refs))
		}
		for i := g.Start; i < g.End; i++ {
			iv := refs[i].Interval
			if !g.Interval.Contains(iv.Lo) || !g.Interval.Contains(iv.Hi) {
				return fmt.Errorf("subfield: group %d interval %v does not cover cell %d interval %v",
					gi, g.Interval, refs[i].ID, iv)
			}
		}
		pos = g.End
	}
	if pos != len(refs) {
		return fmt.Errorf("subfield: groups cover %d of %d refs", pos, len(refs))
	}
	return nil
}
