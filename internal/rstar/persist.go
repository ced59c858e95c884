package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fielddb/internal/storage"
)

// On-page node layout (little endian):
//
//	[0:2)  level (0 = leaf)
//	[2:4)  entry count
//	[4:8)  reserved
//	then count entries of (lo, hi float64, uint64 ref) each, where ref is a
//	child PageID for inner nodes and the opaque payload for leaves.
const (
	nodeHeaderSize = 8
	entrySize      = 24
)

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
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.mbr[0]))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.mbr[1]))
		off += 16
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
func OpenPaged(pager *storage.Pager, root storage.PageID, params Params, size, nodes, height int) (*Tree, error) {
	t, err := New(params)
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
	nt, err := New(t.params)
	if err != nil {
		return nil, err
	}
	nt.pager = t.pager
	nt.rootPage = t.rootPage
	nt.numNodes = t.numNodes
	nt.pagedHeight = t.pagedHeight
	if t.root != nil {
		nt.root = cloneNode(t.root)
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
	if count > t.maxFill || nodeHeaderSize+count*entrySize > len(page) {
		return nil, 0, fmt.Errorf("rstar: node page %d: corrupt entry count %d", id, count)
	}
	n := &node{level: level, entries: make([]nodeEntry, 0, count)}
	size := 0
	for i := 0; i < count; i++ {
		e := nodeEntry{mbr: entryMBR(page, i)}
		if level == 0 {
			e.data = entryRef(page, i)
			size++
		} else {
			child, sz, err := t.hydrateNode(r, storage.PageID(entryRef(page, i)))
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

// cloneNode deep-copies a subtree.
func cloneNode(n *node) *node {
	c := &node{level: n.level, entries: slices.Clone(n.entries)}
	for i, e := range c.entries {
		if e.child != nil {
			c.entries[i].child = cloneNode(e.child)
		}
	}
	return c
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
// Each call allocates its search state; a caller that searches again and
// again keeps a Searcher instead.
func (t *Tree) PagedSearchCtx(r storage.PageReader, query MBR, fn func(Entry) bool) error {
	return new(Searcher).Search(t, r, query, fn)
}

// entryMBR decodes entry i's bounds from a node page image.
func entryMBR(page []byte, i int) MBR {
	off := nodeHeaderSize + i*entrySize
	return MBR{
		math.Float64frombits(binary.LittleEndian.Uint64(page[off:])),
		math.Float64frombits(binary.LittleEndian.Uint64(page[off+8:])),
	}
}

// entryRef returns entry i's child page id (inner nodes) or payload (leaves).
func entryRef(page []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(page[nodeHeaderSize+i*entrySize+16:])
}

// searchLeafPage visits the matching entries of one leaf page image in slot
// order; false means fn stopped the search.
func searchLeafPage(page []byte, query MBR, fn func(Entry) bool) bool {
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	for i := 0; i < count; i++ {
		if m := entryMBR(page, i); m.Intersects(query) && !fn(Entry{MBR: m, Data: entryRef(page, i)}) {
			return false
		}
	}
	return true
}

// Searcher runs paged searches on storage it keeps from one to the next —
// its node visitor, bound once, and its list of leaf runs — so a caller that
// keeps one beside its other per-query scratch searches without allocating
// once a first search has sized it. The zero
// value is ready to use. A Searcher runs one search at a time: fn must not
// search with it.
type Searcher struct {
	r      storage.PageReader
	query  MBR
	fn     func(Entry) bool
	self   *Searcher                         // the receiver visit is bound to
	visit  func(storage.PageID, []byte) bool // s.node
	more   bool                              // false once fn stopped the search
	err    error
	kids   []storage.PageID // matching leaves of the level-1 node being read
	kidBuf [32]storage.PageID
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
	s.r, s.query, s.fn, s.more, s.err = r, query, fn, true, nil
	s.descend(t.rootPage, t.rootPage)
	err := s.err
	s.r, s.fn, s.err = nil, nil, nil
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
	level := int(binary.LittleEndian.Uint16(page[0:2]))
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	switch level {
	case 0:
		s.more = searchLeafPage(page, s.query, s.fn)
		return s.more
	case 1:
		s.kids = s.kids[:0]
		for i := 0; i < count; i++ {
			if entryMBR(page, i).Intersects(s.query) {
				s.kids = append(s.kids, storage.PageID(entryRef(page, i)))
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
		if entryMBR(page, i).Intersects(s.query) {
			if child := storage.PageID(entryRef(page, i)); !s.descend(child, child) {
				return false
			}
		}
	}
	return true
}
