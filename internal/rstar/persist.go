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
// page, and remembers the root page for PagedSearch. Nodes are laid out in
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
// by Persist: PagedSearch works immediately; in-memory operations (Insert,
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
// handle the persisted node pages are read through r (defaulting to the
// tree's pager, so the loads are charged to r when it is a per-query
// context); a tree that already holds in-memory nodes is deep-copied without
// touching pages. Either way the receiver is left untouched — readers holding
// it (or searching its persisted pages) are unaffected, which is what the
// MVCC update path relies on: mutate the copy, persist it to fresh pages,
// then publish it as the next snapshot.
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
		nt.root = cloneNode(t.root)
		nt.size = t.size
		return nt, nil
	}
	if r == nil {
		if t.pager == nil {
			return nil, fmt.Errorf("rstar: cannot hydrate: tree not persisted")
		}
		r = t.pager
	}
	if t.rootPage == storage.InvalidPage {
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
// returning the node and the number of leaf entries under it.
func (t *Tree) hydrateNode(r storage.PageReader, id storage.PageID) (*node, int, error) {
	buf := make([]byte, r.PageSize())
	if err := r.ReadPage(id, buf); err != nil {
		return nil, 0, err
	}
	level := int(binary.LittleEndian.Uint16(buf[0:2]))
	count := int(binary.LittleEndian.Uint16(buf[2:4]))
	if count > t.maxFill || nodeHeaderSize+count*(16*t.dims+8) > len(buf) {
		return nil, 0, fmt.Errorf("rstar: node page %d: corrupt entry count %d", id, count)
	}
	n := &node{level: level, entries: make([]nodeEntry, 0, count)}
	size := 0
	for i := 0; i < count; i++ {
		e := nodeEntry{mbr: t.entryMBR(buf, i, make(MBR, 2*t.dims))}
		if level == 0 {
			e.data = t.entryRef(buf, i)
			size++
		} else {
			child, sz, err := t.hydrateNode(r, storage.PageID(t.entryRef(buf, i)))
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
	c := &node{level: n.level, entries: make([]nodeEntry, len(n.entries))}
	for i, e := range n.entries {
		c.entries[i] = nodeEntry{mbr: e.mbr.Clone(), data: e.data}
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

// PagedSearch visits every persisted entry whose MBR intersects query,
// reading node pages through the pager so that each visit is charged to the
// simulated disk clock. Returning false from fn stops the search.
func (t *Tree) PagedSearch(query MBR, fn func(Entry) bool) error {
	if t.pager == nil {
		return fmt.Errorf("rstar: tree not persisted")
	}
	return t.PagedSearchCtx(t.pager, query, fn)
}

// PagedSearchCtx is PagedSearch with the node-page reads charged to r — a
// per-query execution context, so concurrent searches over one persisted
// tree keep independent accounting. Node pages are tested in place on
// zero-copy views, and contiguous leaf runs are batched through one
// vectorized ReadRun.
//
// Every Entry handed to fn shares one MBR that the search overwrites for the
// next match: it is valid only during the callback, and a callback that keeps
// the bounds must Clone them.
func (t *Tree) PagedSearchCtx(r storage.PageReader, query MBR, fn func(Entry) bool) error {
	if t.pager == nil {
		return fmt.Errorf("rstar: tree not persisted")
	}
	_, err := t.viewSearchNode(r, t.rootPage, query, make(MBR, 2*t.dims), fn)
	return err
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

// viewSearchNode is the zero-copy search: the node's immutable frame stays
// pinned while its children are visited, so matches need no collection pass
// and entry bounds are tested in place. At level 1, matching leaf children
// on consecutive pages — depth-first persistence puts the leaves under one
// parent there — are fetched as one vectorized run.
func (t *Tree) viewSearchNode(r storage.PageReader, id storage.PageID, query, scratch MBR, fn func(Entry) bool) (bool, error) {
	f, err := r.ViewPage(id)
	if err != nil {
		return false, err
	}
	defer f.Release()
	page := f.Data()
	level := int(binary.LittleEndian.Uint16(page[0:2]))
	count := int(binary.LittleEndian.Uint16(page[2:4]))
	if level == 0 {
		return t.searchLeafPage(page, query, scratch, fn), nil
	}
	if level == 1 {
		kids := make([]storage.PageID, 0, count)
		for i := 0; i < count; i++ {
			if t.entryIntersects(page, i, query) {
				kids = append(kids, storage.PageID(t.entryRef(page, i)))
			}
		}
		return t.searchLeafRuns(r, kids, query, scratch, fn)
	}
	for i := 0; i < count; i++ {
		if !t.entryIntersects(page, i, query) {
			continue
		}
		cont, err := t.viewSearchNode(r, storage.PageID(t.entryRef(page, i)), query, scratch, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// searchLeafRuns visits the given leaf pages in order, each maximal run of
// consecutive page ids through one ReadRun. The visit order and per-page
// charges are identical to reading the leaves one by one; only the pool and
// disk interactions are batched.
func (t *Tree) searchLeafRuns(r storage.PageReader, kids []storage.PageID, query, scratch MBR, fn func(Entry) bool) (bool, error) {
	cont := true
	visit := func(_ storage.PageID, page []byte) bool {
		cont = t.searchLeafPage(page, query, scratch, fn)
		return cont
	}
	for i := 0; i < len(kids) && cont; {
		j := i + 1
		for j < len(kids) && kids[j] == kids[j-1]+1 {
			j++
		}
		if err := r.ReadRun(kids[i], kids[j-1], visit); err != nil {
			return false, err
		}
		i = j
	}
	return cont, nil
}
