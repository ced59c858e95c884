// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) as the paper uses it: a 1-D index over the value
// intervals of cells or subfields.
//
// The implementation is paged (one node per 4 KiB page by default) and
// supports the full R* insertion algorithm — ChooseSubtree with minimum
// overlap enlargement at the leaf level, the split that picks the
// distribution by overlap, and forced reinsertion — plus deletion, range
// search, and bottom-up bulk loading in the style of Kamel & Faloutsos
// (CIKM 1993).
//
// Trees are built in memory and then persisted through a storage.Pager;
// searches can run either in memory or against the persisted pages so that
// every node visit is charged to the simulated disk clock.
package rstar

import (
	"fmt"
)

// MBR is a value interval [lo, hi]: the 1-D minimum bounding rectangle the
// paper indexes.
type MBR [2]float64

// Interval1D returns the MBR [lo, hi].
func Interval1D(lo, hi float64) MBR { return MBR{lo, hi} }

// Area returns the length of m, 0 when it is empty (lo > hi).
func (m MBR) Area() float64 {
	side := m[1] - m[0]
	if side < 0 {
		return 0
	}
	return side
}

// Center returns the midpoint of m.
func (m MBR) Center() float64 { return (m[0] + m[1]) / 2 }

// Intersects reports whether the closed intervals m and o overlap.
func (m MBR) Intersects(o MBR) bool { return !(m[0] > o[1] || o[0] > m[1]) }

// Contains reports whether m fully contains o.
func (m MBR) Contains(o MBR) bool { return !(o[0] < m[0] || o[1] > m[1]) }

// OverlapArea returns the length of the intersection of m and o.
func (m MBR) OverlapArea(o MBR) float64 {
	lo, hi := m[0], m[1]
	if o[0] > lo {
		lo = o[0]
	}
	if o[1] < hi {
		hi = o[1]
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Union returns the smallest MBR covering m and o. A NaN bound of o never
// replaces m's.
func (m MBR) Union(o MBR) MBR {
	if o[0] < m[0] {
		m[0] = o[0]
	}
	if o[1] > m[1] {
		m[1] = o[1]
	}
	return m
}

// Enlargement returns the increase of m's length needed to cover o: the
// length of m.Union(o) less m's.
func (m MBR) Enlargement(o MBR) float64 { return m.Union(o).Area() - m.Area() }

// String implements fmt.Stringer.
func (m MBR) String() string { return fmt.Sprintf("[%g..%g]", m[0], m[1]) }
