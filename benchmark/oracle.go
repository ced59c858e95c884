package main

import (
	"fmt"
	"math"

	"fielddb"
)

// oracle is the brute-force reference: every cell's value interval and area
// read straight from the in-memory field (Field.Cell → Cell.Interval), with
// no index, page or codec in between.
type oracle struct {
	lo, hi, area []float64
}

// newOracle scans f once. Call it again after the field has been updated.
func newOracle(f fielddb.Field) *oracle {
	n := f.NumCells()
	o := &oracle{lo: make([]float64, n), hi: make([]float64, n), area: make([]float64, n)}
	var c fielddb.Cell
	for id := 0; id < n; id++ {
		f.Cell(fielddb.CellID(id), &c)
		iv := c.Interval()
		o.lo[id], o.hi[id], o.area[id] = iv.Lo, iv.Hi, c.Area()
	}
	return o
}

// expected is what any exact answer to one value query must report.
type expected struct {
	cells int
	area  float64
}

// answer counts the cells whose interval intersects [q.Lo, q.Hi] and sums
// their areas.
func (o *oracle) answer(q fielddb.Interval) expected {
	var e expected
	for i := range o.lo {
		if o.lo[i] <= q.Hi && q.Lo <= o.hi[i] {
			e.cells++
			e.area += o.area[i]
		}
	}
	return e
}

// answers evaluates every interval of a list.
func (o *oracle) answers(qs []fielddb.Interval) []expected {
	out := make([]expected, len(qs))
	for i, q := range qs {
		out[i] = o.answer(q)
	}
	return out
}

// areaTolerance absorbs summation order: the oracle adds cell areas in cell
// order, the engine in storage order.
const areaTolerance = 1e-9

// check compares an in-process result with the oracle.
func (e expected) check(res *fielddb.Result) error {
	if res.CellsMatched != e.cells {
		return fmt.Errorf("query %v: %d cells matched, oracle %d", res.Query, res.CellsMatched, e.cells)
	}
	if math.Abs(res.MatchedCellArea-e.area) > areaTolerance*math.Max(1, e.area) {
		return fmt.Errorf("query %v: matched cell area %g, oracle %g", res.Query, res.MatchedCellArea, e.area)
	}
	return nil
}

// checkAggregate accepts an aggregate answer whose certified bound covers
// the oracle's count.
func (e expected) checkAggregate(count, bound float64) error {
	if math.Abs(count-float64(e.cells)) > bound+areaTolerance*float64(e.cells) {
		return fmt.Errorf("aggregate count %g ± %g misses oracle %d", count, bound, e.cells)
	}
	return nil
}
