// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) — the index structure the paper uses both for the
// value domain (1-D R*-tree over subfield or cell intervals) and, for
// conventional positional queries, over 2-D cell extents.
//
// The implementation is d-dimensional, paged (one node per 4 KiB page by
// default), and supports the full R* insertion algorithm — ChooseSubtree
// with minimum overlap enlargement at the leaf level, the topological
// split that picks the axis by margin sum and the distribution by overlap,
// and forced reinsertion — plus deletion, range search, and bottom-up bulk
// loading in the style of Kamel & Faloutsos (CIKM 1993).
//
// Trees are built in memory and then persisted through a storage.Pager;
// searches can run either in memory or against the persisted pages so that
// every node visit is charged to the simulated disk clock.
package rstar

import (
	"fmt"
)

// MBR is a d-dimensional minimum bounding rectangle stored flat as
// [lo0, hi0, lo1, hi1, ...]. A 1-D MBR is exactly the value interval the
// paper indexes.
type MBR []float64

// NewMBR returns an MBR with the given lo/hi pairs.
func NewMBR(bounds ...float64) MBR {
	if len(bounds)%2 != 0 {
		panic("rstar: NewMBR needs lo/hi pairs")
	}
	m := make(MBR, len(bounds))
	copy(m, bounds)
	return m
}

// Interval1D returns the 1-D MBR [lo, hi].
func Interval1D(lo, hi float64) MBR { return MBR{lo, hi} }

// Rect2D returns the 2-D MBR covering [xlo,xhi] × [ylo,yhi].
func Rect2D(xlo, xhi, ylo, yhi float64) MBR { return MBR{xlo, xhi, ylo, yhi} }

// Dims returns the dimensionality of the MBR.
func (m MBR) Dims() int { return len(m) / 2 }

// Lo returns the lower bound along axis d.
func (m MBR) Lo(d int) float64 { return m[2*d] }

// Hi returns the upper bound along axis d.
func (m MBR) Hi(d int) float64 { return m[2*d+1] }

// Clone returns a copy of m.
func (m MBR) Clone() MBR {
	out := make(MBR, len(m))
	copy(out, m)
	return out
}

// Area returns the d-dimensional volume of m.
func (m MBR) Area() float64 {
	a := 1.0
	for d := 0; d < m.Dims(); d++ {
		side := m.Hi(d) - m.Lo(d)
		if side < 0 {
			return 0
		}
		a *= side
	}
	return a
}

// Margin returns the sum of the edge lengths of m (the R* split heuristic's
// perimeter measure).
func (m MBR) Margin() float64 {
	s := 0.0
	for d := 0; d < m.Dims(); d++ {
		s += m.Hi(d) - m.Lo(d)
	}
	return s
}

// Center returns the center coordinate along axis d.
func (m MBR) Center(d int) float64 { return (m.Lo(d) + m.Hi(d)) / 2 }

// Intersects reports whether the closed rectangles m and o overlap.
func (m MBR) Intersects(o MBR) bool {
	for d := 0; d < m.Dims(); d++ {
		if m.Lo(d) > o.Hi(d) || o.Lo(d) > m.Hi(d) {
			return false
		}
	}
	return true
}

// Contains reports whether m fully contains o.
func (m MBR) Contains(o MBR) bool {
	for d := 0; d < m.Dims(); d++ {
		if o.Lo(d) < m.Lo(d) || o.Hi(d) > m.Hi(d) {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection of m and o.
func (m MBR) OverlapArea(o MBR) float64 {
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

// ExtendInPlace grows m to cover o.
func (m MBR) ExtendInPlace(o MBR) {
	for i := 0; i < len(m); i += 2 {
		if o[i] < m[i] {
			m[i] = o[i]
		}
		if o[i+1] > m[i+1] {
			m[i+1] = o[i+1]
		}
	}
}

// Union returns the smallest MBR covering m and o.
func (m MBR) Union(o MBR) MBR {
	u := m.Clone()
	u.ExtendInPlace(o)
	return u
}

// Enlargement returns the increase of m's area needed to cover o: the area of
// m.Union(o), computed without building it, less m's.
func (m MBR) Enlargement(o MBR) float64 {
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
	return a - m.Area()
}

// String implements fmt.Stringer.
func (m MBR) String() string {
	s := "["
	for d := 0; d < m.Dims(); d++ {
		if d > 0 {
			s += " × "
		}
		s += fmt.Sprintf("%g..%g", m.Lo(d), m.Hi(d))
	}
	return s + "]"
}
