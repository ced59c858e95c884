package rstar

import (
	"encoding/binary"
	"fmt"
	"math"

	"fielddb/internal/storage"
)

// On-page node layout (little endian):
//
//	[0:2)  level (0 = leaf)
//	[2:4)  entry count
//	[4:8)  reserved
//	then count entries of (2*dims float64 bounds, uint64 ref) each, where
//	ref is a child PageID for inner nodes and the opaque payload for leaves.
const nodeHeaderSize = 8

// Persist writes the tree to pages allocated from the pager, one node per
// page, and remembers the root page for PagedSearchCtx. Nodes are laid out in
// depth-first order so the leaves under one parent occupy nearly contiguous
// pages.
func (t *Tree) Persist(pager *storage.Pager) error {
	if t.root == nil {
		return fmt.Errorf("rstar: cannot persist a paged-only handle")
	}
	if pager.PageSize() < t.params.PageSize {
		return fmt.Errorf("rstar: pager page size %d smaller than tree page size %d",
			pager.PageSize(), t.params.PageSize)
	}
	t.pager = pager
	t.numNodes = 0
	root, err := t.persistNode(pager, t.root)
	if err != nil {
		return err
	}
	t.rootPage = root
	return nil
}

func (t *Tree) persistNode(pager *storage.Pager, n *node) (storage.PageID, error) {
	id, err := pager.Alloc()
	if err != nil {
		return storage.InvalidPage, err
	}
	t.numNodes++
	buf := make([]byte, pager.PageSize())
	binary.LittleEndian.PutUint16(buf[0:2], uint16(n.level))
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(n.entries)))
	off := nodeHeaderSize
	for _, e := range n.entries {
		for _, v := range e.mbr {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
		ref := e.data
		if e.child != nil {
			childID, err := t.persistNode(pager, e.child)
			if err != nil {
				return storage.InvalidPage, err
			}
			ref = uint64(childID)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
	}
	if err := pager.WritePage(id, buf); err != nil {
		return storage.InvalidPage, err
	}
	return id, nil
}

// OpenPaged returns a query-only tree handle over pages previously written
// by Persist: PagedSearchCtx works immediately; in-memory operations (Insert,
// Delete, Search) are unavailable because the node structure is not loaded.
// Len reports the stored entry count as provided by the caller's catalog.
func OpenPaged(pager *storage.Pager, root storage.PageID, dims int, params Params, size, nodes, height int) (*Tree, error) {
	t, err := New(dims, params)
	if err != nil {
		return nil, err
	}
	if root == storage.InvalidPage {
		return nil, fmt.Errorf("rstar: invalid root page")
	}
	t.root = nil // query-only handle
	t.size = size
	t.pager = pager
	t.rootPage = root
	t.numNodes = nodes
	t.pagedHeight = height
	return t, nil
}

// IsPagedOnly reports whether the tree is a query-only handle produced by
// OpenPaged.
func (t *Tree) IsPagedOnly() bool { return t.root == nil }

// Hydrate returns an updatable in-memory copy of the tree. For a paged-only
// handle the persisted node pages are read through r, so the loads are charged
// to r when it is a per-query context; a tree that already holds in-memory
// nodes is deep-copied without touching pages. Either way the receiver is left
// untouched — readers holding it (or searching its persisted pages) are
// unaffected, which is what the MVCC update path relies on: mutate the copy,
// persist it to fresh pages, then publish it as the next snapshot.
func (t *Tree) Hydrate(r storage.PageReader) (*Tree, error) {
	nt, err := New(t.dims, t.params)
	if err != nil {
		return nil, err
	}
	nt.pager = t.pager
	nt.rootPage = t.rootPage
	nt.numNodes = t.numNodes
	nt.pagedHeight = t.pagedHeight
	if t.root != nil {
		nt.root = cloneNode(t.root, t.dims)
		nt.size = t.size
		return nt, nil
	}
	if t.pager == nil || t.rootPage == storage.InvalidPage {
		return nil, fmt.Errorf("rstar: cannot hydrate: tree not persisted")
	}
	root, size, err := t.hydrateNode(r, t.rootPage)
	if err != nil {
		return nil, err
	}
	nt.root = root
	nt.size = size
	return nt, nil
}

// hydrateNode loads the node at page id and, recursively, its subtree,
// returning the node and the number of leaf entries under it. The children
// are read inside the parent's ReadRun callback, while its page stays pinned.
func (t *Tree) hydrateNode(r storage.PageReader, id storage.PageID) (n *node, size int, err error) {
	rerr := r.ReadRun(id, id, func(_ storage.PageID, page []byte) bool {
		n, size, err = t.decodeNode(r, id, page)
		return true
	})
	if rerr != nil {
		return nil, 0, rerr
	}
	return n, size, err
}

// decodeNode builds the node held by page image page (page id) and hydrates
// its children through r.
func (t *Tree) decodeNode(r storage.PageReader, id storage.PageID, page []byte) (*node, int, error) {
	level := int(binary.LittleEndian.Uint16(page[0:2]))
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	if count > t.maxFill || nodeHeaderSize+count*(16*t.dims+8) > len(page) {
		return nil, 0, fmt.Errorf("rstar: node page %d: corrupt entry count %d", id, count)
	}
	n := &node{level: level, entries: make([]nodeEntry, 0, count)}
	bounds := make([]float64, count*2*t.dims)
	size := 0
	for i := 0; i < count; i++ {
		e := nodeEntry{mbr: t.entryMBR(page, i, entryBounds(bounds, i, t.dims))}
		if level == 0 {
			e.data = t.entryRef(page, i)
			size++
		} else {
			child, sz, err := t.hydrateNode(r, storage.PageID(t.entryRef(page, i)))
			if err != nil {
				return nil, 0, err
			}
			if child.level != level-1 {
				return nil, 0, fmt.Errorf("rstar: node page %d: child level %d under level %d", id, child.level, level)
			}
			e.child = child
			size += sz
		}
		n.entries = append(n.entries, e)
	}
	return n, size, nil
}

// cloneNode deep-copies a subtree of dims-dimensional MBRs.
func cloneNode(n *node, dims int) *node {
	c := &node{level: n.level, entries: make([]nodeEntry, len(n.entries))}
	bounds := make([]float64, len(n.entries)*2*dims)
	for i, e := range n.entries {
		m := entryBounds(bounds, i, dims)
		copy(m, e.mbr)
		c.entries[i] = nodeEntry{mbr: m, data: e.data}
		if e.child != nil {
			c.entries[i].child = cloneNode(e.child, dims)
		}
	}
	return c
}

// entryBounds is the i-th entry's MBR in bounds, one array holding a node's
// entries' bounds, so that a hydrated tree allocates per node, not per entry.
// Its capacity ends at its length, so it never reaches into a neighbour's, and
// it stays valid when its entry moves to another node.
func entryBounds(bounds []float64, i, dims int) MBR {
	w := 2 * dims
	return MBR(bounds[i*w : i*w+w : i*w+w])
}

// RootPage returns the page id of the persisted root, or storage.InvalidPage
// if the tree has not been persisted.
func (t *Tree) RootPage() storage.PageID {
	if t.pager == nil {
		return storage.InvalidPage
	}
	return t.rootPage
}

// PersistedNodes returns the number of pages written by the last Persist.
func (t *Tree) PersistedNodes() int { return t.numNodes }

// PagedSearchCtx visits every persisted entry whose MBR intersects query,
// reading node pages through r — a per-query execution context, so each visit
// is charged to that query's simulated disk clock and concurrent searches over
// one persisted tree keep independent accounting. Returning false from fn
// stops the search. Node pages are tested in place on the images ReadRun
// hands over, and contiguous leaf runs are batched through one ReadRun.
//
// Every Entry handed to fn shares one MBR that the search overwrites for the
// next match: it is valid only during the callback, and a callback that keeps
// the bounds must Clone them.
//
// Each call allocates its search state; a caller that searches again and
// again keeps a Searcher instead.
func (t *Tree) PagedSearchCtx(r storage.PageReader, query MBR, fn func(Entry) bool) error {
	return new(Searcher).Search(t, r, query, fn)
}

// entryIntersects tests entry i's bounds on a node page image against query
// without materializing an MBR — the comparisons are exactly MBR.Intersects.
func (t *Tree) entryIntersects(page []byte, i int, query MBR) bool {
	off := nodeHeaderSize + i*(16*t.dims+8)
	for d := 0; d < t.dims; d++ {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(page[off+16*d:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(page[off+16*d+8:]))
		if lo > query[2*d+1] || query[2*d] > hi {
			return false
		}
	}
	return true
}

// entryMBR decodes entry i's bounds from a node page image into m.
func (t *Tree) entryMBR(page []byte, i int, m MBR) MBR {
	off := nodeHeaderSize + i*(16*t.dims+8)
	for j := range m {
		m[j] = math.Float64frombits(binary.LittleEndian.Uint64(page[off+8*j:]))
	}
	return m
}

// entryRef returns entry i's child page id (inner nodes) or payload (leaves).
func (t *Tree) entryRef(page []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(page[nodeHeaderSize+i*(16*t.dims+8)+16*t.dims:])
}

// searchLeafPage visits the matching entries of one leaf page image in slot
// order, decoding each one's bounds into scratch; false means fn stopped the
// search.
func (t *Tree) searchLeafPage(page []byte, query, scratch MBR, fn func(Entry) bool) bool {
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	for i := 0; i < count; i++ {
		if !t.entryIntersects(page, i, query) {
			continue
		}
		if !fn(Entry{MBR: t.entryMBR(page, i, scratch), Data: t.entryRef(page, i)}) {
			return false
		}
	}
	return true
}

// Searcher runs paged searches on storage it keeps from one to the next —
// its scratch bounds, its node visitor, bound once, and its list of leaf
// runs — so a caller that keeps one beside its other per-query scratch
// searches without allocating once a first search has sized it. The zero
// value is ready to use. A Searcher runs one search at a time: fn must not
// search with it.
type Searcher struct {
	t              *Tree
	r              storage.PageReader
	query, scratch MBR
	fn             func(Entry) bool
	self           *Searcher                         // the receiver visit is bound to
	visit          func(storage.PageID, []byte) bool // s.node
	more           bool                              // false once fn stopped the search
	err            error
	kids           []storage.PageID // matching leaves of the level-1 node being read
	kidBuf         [32]storage.PageID
}

// Search is t.PagedSearchCtx(r, query, fn) on s's storage. It keeps no
// reference to t, r, query or fn once it returns.
func (s *Searcher) Search(t *Tree, r storage.PageReader, query MBR, fn func(Entry) bool) error {
	if t.pager == nil {
		return fmt.Errorf("rstar: tree not persisted")
	}
	if s.self != s { // a first search, or a copied Searcher
		s.self, s.visit, s.kids = s, s.node, s.kidBuf[:0]
	}
	if w := 2 * t.dims; cap(s.scratch) >= w {
		s.scratch = s.scratch[:w]
	} else {
		s.scratch = make(MBR, w)
	}
	s.t, s.r, s.query, s.fn, s.more, s.err = t, r, query, fn, true, nil
	s.descend(t.rootPage, t.rootPage)
	err := s.err
	s.t, s.r, s.query, s.fn, s.err = nil, nil, nil, nil, nil
	return err
}

// descend reads the node pages [first, last] in order; false ends the search,
// on a stop by fn or a read error alike.
func (s *Searcher) descend(first, last storage.PageID) bool {
	if err := s.r.ReadRun(first, last, s.visit); err != nil {
		s.err = err
	}
	return s.more && s.err == nil
}

// node visits one node page. Its children are read inside this callback, so
// the page stays pinned while they are visited and matches need no collection
// pass. At level 1, matching leaf children on consecutive pages — depth-first
// persistence puts the leaves under one parent there — are read as one run;
// the visit order and per-page charges are those of reading them one by one.
func (s *Searcher) node(_ storage.PageID, page []byte) bool {
	t := s.t
	level := int(binary.LittleEndian.Uint16(page[0:2]))
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	switch level {
	case 0:
		s.more = t.searchLeafPage(page, s.query, s.scratch, s.fn)
		return s.more
	case 1:
		s.kids = s.kids[:0]
		for i := 0; i < count; i++ {
			if t.entryIntersects(page, i, s.query) {
				s.kids = append(s.kids, storage.PageID(t.entryRef(page, i)))
			}
		}
		for i := 0; i < len(s.kids); {
			j := i + 1
			for j < len(s.kids) && s.kids[j] == s.kids[j-1]+1 {
				j++
			}
			if !s.descend(s.kids[i], s.kids[j-1]) {
				return false
			}
			i = j
		}
		return true
	}
	for i := 0; i < count; i++ {
		if t.entryIntersects(page, i, s.query) {
			if child := storage.PageID(t.entryRef(page, i)); !s.descend(child, child) {
				return false
			}
		}
	}
	return true
}
