package volume

import (
	"fmt"
	"sort"

	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/sfc"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// Result is the outcome of a 3-D value query.
type Result struct {
	Query           geom.Interval
	CandidateGroups int
	CellsTested     int
	CellsMatched    int
	// Volume is the exact measure of the answer region (the 3-D analogue
	// of the 2-D answer-polygon area).
	Volume float64
	// Cells lists the matched cell ids.
	Cells []CellID
	IO    storage.Stats
}

// Index is the I-Hilbert value index over a VoxelGrid: cells linearized by
// the 3-D Hilbert value of their centers, grouped into subfields with the
// paper's cost model, subfield intervals in a 1-D R*-tree.
type Index struct {
	grid   *VoxelGrid
	pager  *storage.Pager
	order  []CellID // cells in Hilbert order
	groups []subfield.Group
	tree   *rstar.Tree
	// posInOrder maps cell positions to their run for candidate counting.
	cellIntervals []geom.Interval // per order position
}

// BuildIndex constructs the 3-D subfield index. The pager carries the
// simulated I/O accounting for the R*-tree pages (cell records themselves
// stay in the grid, which models a memory-mapped volume; the dominant cost
// the index saves is interval testing, reported via CellsTested).
func BuildIndex(g *VoxelGrid, pager *storage.Pager) (*Index, error) {
	nx, ny, nz := g.Size()
	order := maxInt(nx, maxInt(ny, nz))
	bits := 1
	for 1<<bits < order {
		bits++
	}
	if bits*3 > 60 {
		return nil, fmt.Errorf("volume: grid too large for Hilbert keys")
	}
	curve, err := sfc.NewHilbert(bits, 3)
	if err != nil {
		return nil, err
	}
	n := g.NumCells()
	type keyed struct {
		id  CellID
		key uint64
		iv  geom.Interval
	}
	cells := make([]keyed, n)
	coords := make([]uint32, 3)
	for id := 0; id < n; id++ {
		x, y, z := g.coords(CellID(id))
		coords[0], coords[1], coords[2] = uint32(x), uint32(y), uint32(z)
		lo, hi := g.CellInterval(CellID(id))
		cells[id] = keyed{id: CellID(id), key: curve.Index(coords), iv: geom.Interval{Lo: lo, Hi: hi}}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].key != cells[j].key {
			return cells[i].key < cells[j].key
		}
		return cells[i].id < cells[j].id
	})
	refs := make([]subfield.CellRef, n)
	orderIDs := make([]CellID, n)
	ivs := make([]geom.Interval, n)
	for i, c := range cells {
		refs[i] = subfield.CellRef{Key: c.key, Interval: c.iv}
		orderIDs[i] = c.id
		ivs[i] = c.iv
	}
	groups := subfield.BuildGreedy(refs, subfield.DefaultCostModel)
	tree, err := rstar.New(rstar.Params{PageSize: pager.PageSize()})
	if err != nil {
		return nil, err
	}
	for gi, gr := range groups {
		if err := tree.Insert(rstar.Entry{
			MBR:  rstar.Interval1D(gr.Interval.Lo, gr.Interval.Hi),
			Data: uint64(gi),
		}); err != nil {
			return nil, err
		}
	}
	if err := tree.Persist(pager); err != nil {
		return nil, err
	}
	return &Index{
		grid:          g,
		pager:         pager,
		order:         orderIDs,
		groups:        groups,
		tree:          tree,
		cellIntervals: ivs,
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NumGroups returns the number of subfields.
func (ix *Index) NumGroups() int { return len(ix.groups) }

// Query answers F⁻¹(lo ≤ w ≤ hi) over the volume: filter subfields through
// the paged R*-tree, then test only the cells of selected subfields and
// accumulate the exact band volume.
func (ix *Index) Query(q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("volume: empty query interval")
	}
	qc := ix.pager.BeginQuery()
	defer qc.Release() // a failed search or fetch must not leave the epoch pinned
	res := &Result{Query: q}
	var selected []int
	err := ix.tree.PagedSearchCtx(qc, rstar.Interval1D(q.Lo, q.Hi), func(e rstar.Entry) bool {
		selected = append(selected, int(e.Data))
		return true
	})
	if err != nil {
		return nil, err
	}
	res.CandidateGroups = len(selected)
	for _, gi := range selected {
		g := ix.groups[gi]
		for pos := g.Start; pos < g.End; pos++ {
			res.CellsTested++
			if !ix.cellIntervals[pos].Intersects(q) {
				continue
			}
			id := ix.order[pos]
			res.CellsMatched++
			res.Cells = append(res.Cells, id)
			res.Volume += ix.grid.CellBandVolume(id, q.Lo, q.Hi)
		}
	}
	res.IO = qc.Stats()
	return res, nil
}

// ScanQuery is the LinearScan baseline: test every cell.
func (ix *Index) ScanQuery(q geom.Interval) (*Result, error) {
	if q.IsEmpty() {
		return nil, fmt.Errorf("volume: empty query interval")
	}
	res := &Result{Query: q}
	n := ix.grid.NumCells()
	for id := 0; id < n; id++ {
		res.CellsTested++
		lo, hi := ix.grid.CellInterval(CellID(id))
		if hi < q.Lo || lo > q.Hi {
			continue
		}
		res.CellsMatched++
		res.Cells = append(res.Cells, CellID(id))
		res.Volume += ix.grid.CellBandVolume(CellID(id), q.Lo, q.Hi)
	}
	return res, nil
}
