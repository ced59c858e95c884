// Package magnitude indexes the Euclidean norm of a vector field (the paper's
// future-work case, §5 — "vector field databases such as wind") with a
// filter-and-refine pipeline: each cell carries a conservative magnitude
// interval (field.VectorField.MagnitudeBounds), cells are grouped into
// subfields exactly as I-Hilbert does, and queries refine candidates by
// evaluating the true magnitude on a sample lattice inside each cell.
//
// The filter never misses an answer (the bounds are conservative); the
// refinement controls the trade-off between cost and area accuracy through
// its sampling density.
package magnitude

import (
	"errors"
	"math"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

var errEmptyQuery = errors.New("magnitude: empty query interval")

// Index is a magnitude index over one vector field: a 1-D R*-tree of its
// subfields' magnitude intervals on a pager.
type Index struct {
	vf    *field.VectorField
	pager *storage.Pager
	// refs are the cells in curve order, each carrying its magnitude bounds.
	refs   []subfield.CellRef
	groups []subfield.Group
	tree   *rstar.Tree
	// refineGrid is the per-axis sample count of the refinement lattice.
	refineGrid int
}

// Options tunes Build.
type Options struct {
	// RefineGrid is the per-axis sample count used to estimate the answer
	// area inside a candidate cell (default 4, i.e. 16 samples per cell).
	RefineGrid int
}

// Result is the outcome of a magnitude band query.
type Result struct {
	Query           geom.Interval
	CandidateGroups int
	CellsTested     int
	// CandidateCells passed the conservative-interval filter.
	CandidateCells []field.CellID
	// MatchedCells contain at least one refinement sample inside the band.
	MatchedCells []field.CellID
	// Area estimates the answer region's area from the refinement lattice.
	Area float64
	IO   storage.Stats
}

// Build builds the magnitude index over vf.
func Build(vf *field.VectorField, pager *storage.Pager, opts Options) (*Index, error) {
	refine := opts.RefineGrid
	if refine <= 0 {
		refine = 4
	}
	curve, err := sfc.NewHilbert(16, 2)
	if err != nil {
		return nil, err
	}
	refs, err := subfield.Linearize(vf.Component(0), curve)
	if err != nil {
		return nil, err
	}
	for i := range refs {
		refs[i].Interval = vf.MagnitudeBounds(refs[i].ID)
	}
	groups := subfield.BuildGreedy(refs, subfield.DefaultCostModel)
	tree, err := rstar.New(rstar.Params{PageSize: pager.PageSize()})
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		if err := tree.Insert(rstar.Entry{
			MBR:  rstar.Interval1D(g.Interval.Lo, g.Interval.Hi),
			Data: uint64(gi),
		}); err != nil {
			return nil, err
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	return &Index{
		vf: vf, pager: pager, refs: refs,
		groups: groups, tree: tree, refineGrid: refine,
	}, nil
}

// NumGroups returns the number of subfields over the magnitude bounds.
func (m *Index) NumGroups() int { return len(m.groups) }

// Query answers "where is |v| in [q.Lo, q.Hi]".
func (m *Index) Query(q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, errEmptyQuery
	}
	qc := m.pager.BeginQuery()
	defer qc.Release() // a failed search or fetch must not leave the epoch pinned
	res := &Result{Query: q}
	var selected []int
	err := m.tree.PagedSearchCtx(qc, rstar.Interval1D(q.Lo, q.Hi), func(e rstar.Entry) bool {
		selected = append(selected, int(e.Data))
		return true
	})
	if err != nil {
		return nil, err
	}
	res.CandidateGroups = len(selected)
	comp0 := m.vf.Component(0)
	var c field.Cell
	k := m.refineGrid
	for _, gi := range selected {
		g := m.groups[gi]
		for pos := g.Start; pos < g.End; pos++ {
			res.CellsTested++
			if !m.refs[pos].Interval.Intersects(q) {
				continue
			}
			id := m.refs[pos].ID
			res.CandidateCells = append(res.CandidateCells, id)
			// Refine: sample the true magnitude on a k×k lattice.
			comp0.Cell(id, &c)
			b := c.Bounds()
			in := 0
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					p := geom.Pt(
						b.Min.X+(float64(i)+0.5)/float64(k)*b.Width(),
						b.Min.Y+(float64(j)+0.5)/float64(k)*b.Height(),
					)
					mag, ok := m.magnitudeInCell(id, p)
					if ok && q.Contains(mag) {
						in++
					}
				}
			}
			if in > 0 {
				res.MatchedCells = append(res.MatchedCells, id)
				res.Area += b.Area() * float64(in) / float64(k*k)
			}
		}
	}
	res.IO = qc.Stats()
	return res, nil
}

// magnitudeInCell evaluates the norm of the component interpolants at p
// using the known containing cell, avoiding a Locate per sample.
func (m *Index) magnitudeInCell(id field.CellID, p geom.Point) (float64, bool) {
	var c field.Cell
	sum := 0.0
	for i := 0; i < m.vf.Dims(); i++ {
		m.vf.Component(i).Cell(id, &c)
		w, ok := field.Interpolate(&c, p)
		if !ok {
			return 0, false
		}
		sum += w * w
	}
	return math.Sqrt(sum), true
}
