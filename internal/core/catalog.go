package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// On-disk database file layout. A saved store is its partitions: one for an
// untiled index, one per tile of a tiled one.
//
//	pages [0, N)       the build pager's pages verbatim — every partition's
//	                   cell heap, then its interval sidecar (LinearScan) or
//	                   R*-tree nodes (every other method), then the field
//	                   summary
//	pages [N, N+K)     the catalog blob (see below), split across pages
//	page  N+K          the superblock (last page of the file):
//	                   magic "FSUP", version u32, catalogStart u32,
//	                   catalogPages u32, blobLen u64
//
// Catalog blob (little endian) — the store header, then the partition records:
//
//	magic "FCAT", version u32
//	method: u16 length + bytes (the per-tile method of a tiled store)
//	sidecar codec: u16 length + bytes (empty: the store has no sidecars; only
//	    a method without a tree names one)
//	tile side u32 (0 for an untiled store)
//	cells u64
//	grid: nx u32, ny u32 (0, 0 where the field is not a regular grid), then
//	    for a grid its origin x, y and spacing dx, dy f64 — the DEM's own bits,
//	    so the cell rectangles a point query derives are the stored cells'
//	epoch u64 (the storage epoch the saved pages materialize; SaveFile writes
//	    the current epoch's overlay view into the base pages, so the opened
//	    store resumes epoch numbering instead of restarting at 0)
//	field summary: first page u32, pages u32 (0/0 when the store carries none)
//	partition count u32 (1 for an untiled store), then per partition:
//	    MBR: min.x, min.y, max.x, max.y f64
//	    value range: lo, hi f64 (a tile's prune test; every store's
//	    ValueRange)
//	    total cell area f64
//	    cell count u64, then the field-wide cell ids in heap order, u32 each
//	        (ascending where the method stores cells in natural order; under a
//	        cut a tile's ascending id list and its local heap order are both
//	        recovered from the one list)
//	    heap page count u64, then that many page ids u32
//	    heap page first-positions, heap page count × u32 (the heap position of
//	        each page's first record, for reconstructing position ↦ RID without
//	        reading cell pages)
//	    where the store has sidecars: sidecar first page u32, pages u32 and,
//	        for the packed codec, the sidecar position of each page's first
//	        entry, pages × u32 (variable-rate pages cannot derive it from
//	        arithmetic the way the raw codec does)
//	    where the method has a tree: root u32, nodes u32, height u32
//	    where the method cuts subfields: group count u64, then per group
//	        interval lo, hi f64; avg f64; firstPage, lastPage u32;
//	        startRef, endRef u64
//
// The page ids a catalog names all lie in [0, N). This is the one layout read
// or written. A file whose superblock or catalog header carries any other
// version is refused with ErrUnsupportedVersion before anything else in it is
// interpreted.
const catalogVersion = 10

// ErrUnsupportedVersion reports a database file whose superblock or catalog
// header names a catalog version other than the current one.
var ErrUnsupportedVersion = errors.New("core: unsupported catalog version")

var (
	catalogMagic    = [4]byte{'F', 'C', 'A', 'T'}
	superblockMagic = [4]byte{'F', 'S', 'U', 'P'}
)

// writeCatalog appends the catalog blob and the superblock that locates it
// to a disk already holding the index's pages, then syncs and closes the disk.
func writeCatalog(disk *storage.FileDisk, blob []byte) error {
	catalogStart := disk.NumPages()
	ps := disk.PageSize()
	// The blob's whole pages go as they lie in it, with one write; its last,
	// partial page, zero-padded, and the superblock with a second.
	whole := len(blob) / ps * ps
	if whole > 0 {
		if _, err := disk.Append(blob[:whole]); err != nil {
			return err
		}
	}
	catalogPages := (len(blob) + ps - 1) / ps
	tail := make([]byte, (catalogPages-whole/ps+1)*ps)
	copy(tail, blob[whole:])
	super := tail[len(tail)-ps:]
	copy(super[0:4], superblockMagic[:])
	binary.LittleEndian.PutUint32(super[4:8], catalogVersion)
	binary.LittleEndian.PutUint32(super[8:12], uint32(catalogStart))
	binary.LittleEndian.PutUint32(super[12:16], uint32(catalogPages))
	binary.LittleEndian.PutUint64(super[16:24], uint64(len(blob)))
	if _, err := disk.Append(tail); err != nil {
		return err
	}
	if err := disk.Sync(); err != nil {
		return err
	}
	return disk.Close()
}

// encodeCatalog encodes the store at its current state: the header, then one
// record per partition.
func (s *store) encodeCatalog() []byte {
	st := s.snap.Load()
	m := methods[s.method]
	first := s.parts[0]
	codec := ""
	if first.sidecar != nil {
		codec = first.sidecar.Codec()
	}
	var b bytes.Buffer
	b.Write(catalogMagic[:])
	writeU32(&b, catalogVersion)
	writeString(&b, string(s.method))
	writeString(&b, codec)
	writeU32(&b, uint32(s.tileSide))
	writeU64(&b, uint64(s.cells))
	if l := s.grid; l != nil {
		writeU32(&b, uint32(l.nx))
		writeU32(&b, uint32(l.ny))
		for _, v := range [...]float64{l.origin.X, l.origin.Y, l.dx, l.dy} {
			writeF64(&b, v)
		}
	} else {
		writeU32(&b, 0)
		writeU32(&b, 0)
	}
	writeU64(&b, st.epoch)
	writeU32(&b, uint32(s.sumFirst))
	writeU32(&b, uint32(s.sumPages))
	writeU32(&b, uint32(len(s.parts)))
	for i, p := range s.parts {
		encodePartition(&b, m, p, st.parts[i], st.vr[i])
	}
	return b.Bytes()
}

// encodePartition appends one partition record: p at its state st, with the
// value range vr its store keeps for it.
func encodePartition(b *bytes.Buffer, m *methodSpec, p *partition, st *partState, vr geom.Interval) {
	for _, v := range [...]float64{p.mbr.Min.X, p.mbr.Min.Y, p.mbr.Max.X, p.mbr.Max.Y, vr.Lo, vr.Hi, p.area} {
		writeF64(b, v)
	}
	writeU64(b, uint64(p.cells))
	for pos := 0; pos < p.cells; pos++ {
		// The cell at pos, under its id in the partition, under its id in the
		// field.
		id := field.CellID(pos)
		if p.order != nil {
			id = p.order[pos]
		}
		if p.ids != nil {
			id = p.ids[id]
		}
		writeU32(b, uint32(id))
	}
	pages := p.heap.Pages()
	writeU64(b, uint64(len(pages)))
	for _, id := range pages {
		writeU32(b, uint32(id))
	}
	// Slots are append-ordered within a page, so the positions of the slot-0
	// records — each page's first — are the whole position ↦ RID map.
	for pos, rid := range p.rids {
		if rid.Slot == 0 {
			writeU32(b, uint32(pos))
		}
	}
	if p.sidecar != nil {
		writeU32(b, uint32(p.sidecar.FirstPage()))
		writeU32(b, uint32(p.sidecar.NumPages()))
		for _, v := range p.sidecar.PageFirstPositions() {
			writeU32(b, v)
		}
	}
	if m.hasTree() {
		writeU32(b, uint32(st.tree.RootPage()))
		writeU32(b, uint32(st.tree.PersistedNodes()))
		writeU32(b, uint32(st.tree.Height()))
	}
	if m.cut {
		writeU64(b, uint64(len(st.groups)))
		for _, g := range st.groups {
			writeF64(b, g.interval.Lo)
			writeF64(b, g.interval.Hi)
			writeF64(b, g.avg)
			writeU32(b, uint32(g.firstPage))
			writeU32(b, uint32(g.lastPage))
			writeU64(b, uint64(g.startRef))
			writeU64(b, uint64(g.endRef))
		}
	}
}

// Open opens a database file written by SaveFile and returns a query-ready
// index backed by the file's pages. The file is opened read-only and its
// catalog read once; a file at any other catalog version is refused before
// anything else in it is interpreted, and a missing one fails with
// fs.ErrNotExist. poolPages is the buffer-pool capacity in pages; 0 disables
// caching (strict cold-cache accounting). Updates work on both: ApplyUpdates
// takes the caller's field, and the pages it allocates stay in memory past the
// file's, which it never writes.
func Open(path string, poolPages int) (Engine, error) {
	disk, blob, dataPages, err := readCatalogBlob(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	eng, err := decodeCatalog(blob, storage.NewPager(storage.NewTailDisk(disk), storage.DefaultDiskModel, poolPages), dataPages)
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return eng, nil
}

// readCatalogBlob opens a database file, validates its superblock, and
// returns the open disk, the catalog blob and the number of pages in front of
// it — the data region every page id in the catalog must fall in. The caller
// owns closing the disk (directly or through the pager built over it).
func readCatalogBlob(path string, pageSize int) (*storage.FileDisk, []byte, int, error) {
	disk, err := storage.OpenFileDiskReadOnly(path, pageSize)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*storage.FileDisk, []byte, int, error) {
		disk.Close()
		return nil, nil, 0, err
	}
	n := disk.NumPages()
	if n < 2 {
		return fail(fmt.Errorf("core: %s: too small to be a database file", path))
	}
	buf := make([]byte, pageSize)
	if err := disk.ReadRun(storage.PageID(n-1), [][]byte{buf}); err != nil {
		return fail(err)
	}
	if !bytes.Equal(buf[0:4], superblockMagic[:]) {
		return fail(fmt.Errorf("core: %s: bad superblock magic", path))
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != catalogVersion {
		return fail(fmt.Errorf("core: %s: superblock: %w %d", path, ErrUnsupportedVersion, v))
	}
	catalogStart := int(binary.LittleEndian.Uint32(buf[8:12]))
	catalogPages := int(binary.LittleEndian.Uint32(buf[12:16]))
	blobLen := int(binary.LittleEndian.Uint64(buf[16:24]))
	if catalogStart < 0 || catalogPages <= 0 || catalogStart+catalogPages != n-1 ||
		blobLen <= 0 || blobLen > catalogPages*pageSize {
		return fail(fmt.Errorf("core: %s: corrupt superblock", path))
	}
	blob := make([]byte, catalogPages*pageSize)
	bufs := make([][]byte, catalogPages)
	for i := range bufs {
		bufs[i] = blob[i*pageSize : (i+1)*pageSize]
	}
	if err := disk.ReadRun(storage.PageID(catalogStart), bufs); err != nil {
		return fail(err)
	}
	return disk, blob[:blobLen], catalogStart, nil
}

// catalogHeaderLen is the catalog prefix checkCatalogHeader validates: magic
// and version. groupMetaLen is one encoded group of a partition record.
const (
	catalogHeaderLen = 8
	groupMetaLen     = 3*8 + 2*4 + 2*8
)

// checkCatalogHeader validates a catalog blob's magic and version — the gate
// in front of the decoder, so it never interprets a layout it was not written
// for.
func checkCatalogHeader(blob []byte) error {
	if len(blob) < catalogHeaderLen {
		return fmt.Errorf("catalog truncated")
	}
	if !bytes.Equal(blob[0:4], catalogMagic[:]) {
		return fmt.Errorf("bad catalog magic")
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != catalogVersion {
		return fmt.Errorf("catalog: %w %d", ErrUnsupportedVersion, v)
	}
	return nil
}

// catalogStore is what a catalog says about the store as a whole — the header
// its partition records are decoded under.
type catalogStore struct {
	m        *methodSpec
	codec    string
	tileSide int
	cells    int
	// dataPages bounds the page ids a record may name: the file's pages in
	// front of the catalog.
	dataPages int
	// owner maps each cell to the partition whose record listed it, -1 until
	// one has.
	owner []int32
}

// inData reports whether the run of n pages from first lies in the data
// region.
func (cs *catalogStore) inData(first storage.PageID, n int) bool {
	return n >= 0 && n <= cs.dataPages && int(first) <= cs.dataPages-n
}

// decodeCatalog decodes a catalog blob and opens the store it describes over
// pager, whose first dataPages pages are the saved store's. Every count and
// page id in the blob was read from a file and may be a lie: counts are
// checked against the bytes left before they size anything, page ids against
// the data region.
func decodeCatalog(blob []byte, pager *storage.Pager, dataPages int) (Engine, error) {
	if err := checkCatalogHeader(blob); err != nil {
		return nil, err
	}
	r := &byteReader{buf: blob, off: catalogHeaderLen}
	method := Method(r.str())
	cs := &catalogStore{m: methods[method], codec: r.str(), dataPages: dataPages}
	cs.tileSide, cs.cells = int(r.u32()), int(r.u64())
	var grid *lattice
	if nx, ny := int(r.u32()), int(r.u32()); nx != 0 || ny != 0 {
		grid = &lattice{nx: nx, ny: ny, origin: geom.Pt(r.f64(), r.f64()), dx: r.f64(), dy: r.f64()}
	}
	epoch := r.u64()
	sumFirst, sumPages := storage.PageID(r.u32()), int(r.u32())
	numParts := int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("catalog truncated")
	}
	if cs.m == nil {
		return nil, fmt.Errorf("catalog has unsupported method %q", method)
	}
	// Build gives a sidecar to the method without a tree alone.
	if cs.codec != "" && (!storage.ValidSidecarCodec(cs.codec) || cs.m.hasTree()) {
		return nil, fmt.Errorf("corrupt catalog header: %s with a %q sidecar", method, cs.codec)
	}
	// Every cell id is a u32 somewhere in the records, every partition holds a
	// cell, and an untiled store is exactly one partition.
	if cs.cells <= 0 || cs.cells > 1<<30 || !r.fits(cs.cells, 4) || numParts < 1 || numParts > cs.cells ||
		(cs.tileSide == 0 && numParts != 1) || (cs.tileSide != 0 && (cs.tileSide < 2 || cs.m.perCell)) {
		return nil, fmt.Errorf("corrupt catalog header")
	}
	if grid != nil && !grid.holds(cs.cells) {
		return nil, fmt.Errorf("corrupt grid record")
	}
	if sumPages > 1<<16 || !cs.inData(sumFirst, sumPages) {
		return nil, fmt.Errorf("corrupt summary geometry")
	}
	cs.owner = make([]int32, cs.cells)
	for i := range cs.owner {
		cs.owner[i] = -1
	}
	// Resume epoch numbering where the saved store left off: SaveFile
	// materialized that epoch's overlay view into the base pages, so the
	// opened store is that epoch, verbatim.
	pager.SetEpoch(epoch)
	s := newStore(pager, method, cs.tileSide, cs.cells)
	s.grid = grid
	s.sumFirst, s.sumPages = sumFirst, sumPages
	st := &state{epoch: epoch}
	covered := 0
	for pi := 0; pi < numParts; pi++ {
		p, pst, vr, err := decodePartition(r, cs, pager, pi)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", pi, err)
		}
		// A tile's view stays nil: queries never touch it, and ApplyUpdates
		// attaches the caller's field on first use.
		s.add(p)
		st.parts, st.vr = append(st.parts, pst), append(st.vr, vr)
		covered += p.cells
	}
	if covered != cs.cells || r.off != len(blob) {
		return nil, fmt.Errorf("catalog records cover %d of %d cells in %d of %d bytes", covered, cs.cells, r.off, len(blob))
	}
	return s.publish(st), nil
}

// holds reports whether a decoded grid record is a lattice of exactly cells
// cells, with positive spacing and a finite origin and far corner.
func (l *lattice) holds(cells int) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	far := geom.Pt(l.origin.X+float64(l.nx)*l.dx, l.origin.Y+float64(l.ny)*l.dy)
	return l.nx >= 1 && l.ny >= 1 && l.nx <= cells && l.ny <= cells && l.nx*l.ny == cells &&
		l.dx > 0 && l.dy > 0 && finite(l.origin.X) && finite(l.origin.Y) && finite(far.X) && finite(far.Y)
}

// decodePartition decodes the next partition record — the pi-th — and opens
// the partition it describes over pager, with the state its method keeps for
// it and the value range its store does.
func decodePartition(r *byteReader, cs *catalogStore, pager *storage.Pager, pi int) (*partition, *partState, geom.Interval, error) {
	fail := func(format string, args ...any) (*partition, *partState, geom.Interval, error) {
		return nil, nil, geom.Interval{}, fmt.Errorf(format, args...)
	}
	p := &partition{
		mbr: geom.Rect{Min: geom.Pt(r.f64(), r.f64()), Max: geom.Pt(r.f64(), r.f64())},
	}
	vr := geom.Interval{Lo: r.f64(), Hi: r.f64()}
	p.area = r.f64()
	p.cells = int(r.u64())
	if r.err == nil && (!(vr.Lo <= vr.Hi) || !(p.area >= 0)) {
		return fail("corrupt summary")
	}
	// An untiled store's one partition holds every cell: posOf is indexed by
	// the ids themselves.
	if p.cells <= 0 || p.cells > cs.cells || (cs.tileSide == 0 && p.cells != cs.cells) || !r.fits(p.cells, 4) {
		return fail("corrupt cell count")
	}
	// Every cell belongs to exactly one partition. A tile addresses its cells by
	// rank among its ascending ids.
	heapIDs := make([]field.CellID, p.cells)
	for pos := range heapIDs {
		id := field.CellID(r.u32())
		if int(id) >= cs.cells || cs.owner[id] != -1 {
			return fail("corrupt cell id at position %d", pos)
		}
		// Uncut, position i holds the i-th smallest id: how route finds a record.
		if !cs.m.cut && pos > 0 && id <= heapIDs[pos-1] {
			return fail("cell ids out of order at position %d", pos)
		}
		heapIDs[pos], cs.owner[id] = id, int32(pi)
	}
	if cs.tileSide != 0 {
		p.ids = heapIDs
	}
	if cs.m.cut {
		// The heap order must be a permutation of the partition's cells: posOf,
		// its inverse, is how updates and point queries locate a cell's record.
		p.order, p.posOf = heapIDs, make([]int32, p.cells)
		if p.ids != nil {
			p.ids = slices.Sorted(slices.Values(heapIDs))
			p.order = make([]field.CellID, p.cells)
		}
		for pos, id := range heapIDs {
			local := int(id)
			if p.ids != nil {
				local, _ = slices.BinarySearch(p.ids, id)
			}
			p.order[pos], p.posOf[local] = field.CellID(local), int32(pos)
		}
	}
	numPages := int(r.u64())
	if numPages <= 0 || numPages > p.cells || !r.fits(numPages, 4) {
		return fail("corrupt heap geometry")
	}
	heapPages := make([]storage.PageID, numPages)
	for i := range heapPages {
		heapPages[i] = storage.PageID(r.u32())
		// A heap grows by allocation, so its page ids ascend.
		if r.err == nil && (!cs.inData(heapPages[i], 1) || (i > 0 && heapPages[i] <= heapPages[i-1])) {
			return fail("heap page %d out of order or outside the data region", heapPages[i])
		}
	}
	p.heap = storage.OpenHeapFile(pager, heapPages, p.cells)
	var err error
	if p.rids, err = readRIDs(r, heapPages, p.cells); err != nil {
		return fail("%w", err)
	}
	if cs.codec != "" {
		first, pages := storage.PageID(r.u32()), int(r.u32())
		if r.err == nil && (pages <= 0 || !cs.inData(first, pages)) {
			return fail("sidecar run outside the data region")
		}
		if cs.codec == storage.SidecarCodecPacked {
			// The directory is one first position per sidecar page.
			if !r.fits(pages, 4) {
				return fail("corrupt packed sidecar directory")
			}
			dir := make([]uint32, pages)
			for i := range dir {
				dir[i] = r.u32()
			}
			p.sidecar, err = storage.OpenIntervalSidecarPacked(pager, first, p.cells, dir)
		} else {
			p.sidecar, err = storage.OpenIntervalSidecar(pager, first, pages, p.cells)
		}
		if err != nil {
			return fail("%w", err)
		}
	}
	st := &partState{}
	if cs.m.hasTree() {
		root, nodes, height := storage.PageID(r.u32()), int(r.u32()), int(r.u32())
		if r.err == nil && !cs.inData(root, 1) {
			return fail("tree root outside the data region")
		}
		entries := p.cells
		if cs.m.cut {
			// Groups tile [0, cells) and reference valid heap pages; a violated
			// invariant means a corrupt (or hostile) file.
			numGroups := int(r.u64())
			if numGroups <= 0 || numGroups > p.cells || !r.fits(numGroups, groupMetaLen) {
				return fail("corrupt group count")
			}
			st.groups = make([]groupMeta, numGroups)
			pos := 0
			for i := range st.groups {
				g := &st.groups[i]
				*g = groupMeta{
					interval:  geom.Interval{Lo: r.f64(), Hi: r.f64()},
					avg:       r.f64(),
					firstPage: int(r.u32()),
					lastPage:  int(r.u32()),
					startRef:  int(r.u64()),
					endRef:    int(r.u64()),
				}
				g.cells = g.endRef - g.startRef
				if r.err != nil || g.startRef != pos || g.endRef <= g.startRef || g.endRef > p.cells ||
					g.lastPage < g.firstPage || g.lastPage >= numPages {
					return fail("corrupt group %d", i)
				}
				// A group's page run is where its first and last cells lie, and runs
				// ascend with the group index — the filter merges the selected runs
				// in index order, so a run out of place would read a page twice.
				if g.firstPage != p.heap.PageIndex(p.rids[g.startRef].Page) || g.lastPage != p.heap.PageIndex(p.rids[g.endRef-1].Page) ||
					(i > 0 && g.firstPage < st.groups[i-1].lastPage) {
					return fail("group %d's page run out of place", i)
				}
				pos = g.endRef
			}
			if pos != p.cells {
				return fail("groups cover %d of %d cells", pos, p.cells)
			}
			entries = numGroups
		}
		if st.tree, err = rstar.OpenPaged(pager, root, 1, rstar.Params{PageSize: pager.PageSize()}, entries, nodes, height); err != nil {
			return fail("%w", err)
		}
	}
	if r.err != nil {
		return fail("catalog truncated")
	}
	cs.m.bind(p)
	return p, st, vr, nil
}

// readRIDs decodes the first heap position of each of a heap's pages holding
// cells records — positions that start at 0 and ascend strictly below cells —
// and rebuilds position ↦ RID from them: slots are assigned in append order
// within each page.
func readRIDs(r *byteReader, heapPages []storage.PageID, cells int) ([]storage.RID, error) {
	if !r.fits(len(heapPages), 4) {
		return nil, r.err
	}
	firstPos := make([]int, len(heapPages)+1)
	firstPos[len(heapPages)] = cells
	for i := range heapPages {
		firstPos[i] = int(r.u32())
		if r.err == nil && (firstPos[i] >= cells || (i == 0) != (firstPos[i] == 0) || (i > 0 && firstPos[i] <= firstPos[i-1])) {
			return nil, fmt.Errorf("corrupt page positions")
		}
	}
	rids := make([]storage.RID, cells)
	for pi, id := range heapPages {
		for pos := firstPos[pi]; pos < firstPos[pi+1]; pos++ {
			rids[pos] = storage.RID{Page: id, Slot: uint16(pos - firstPos[pi])}
		}
	}
	return rids, nil
}

// byteReader is a bounds-checked cursor over the catalog blob — bytes read
// from a file, so every length prefix in them may be a lie. A short read sets
// the sticky err and allocates nothing.
type byteReader struct {
	buf []byte
	off int
	err error
}

// take returns the next n bytes, or nil after a short read.
func (r *byteReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("catalog short read")
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// fits reports whether the rest of the blob can hold n elements of at least
// size encoded bytes each, failing the reader when it cannot: the gate in
// front of every allocation sized by a count read out of the blob.
func (r *byteReader) fits(n, size int) bool {
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.off)/size) {
		r.err = fmt.Errorf("catalog count %d exceeds the blob", n)
	}
	return r.err == nil
}

// scalar returns the next n ≤ 8 bytes; after a short read it answers the
// shared zeros (never written), so the fixed-width decoders need no error
// branch of their own.
func (r *byteReader) scalar(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeroScalar[:n]
}

var zeroScalar [8]byte

func (r *byteReader) u16() uint16  { return binary.LittleEndian.Uint16(r.scalar(2)) }
func (r *byteReader) u32() uint32  { return binary.LittleEndian.Uint32(r.scalar(4)) }
func (r *byteReader) u64() uint64  { return binary.LittleEndian.Uint64(r.scalar(8)) }
func (r *byteReader) f64() float64 { return math.Float64frombits(r.u64()) }

// str reads a u16 length and that many bytes.
func (r *byteReader) str() string { return string(r.take(int(r.u16()))) }

// writeString appends a u16 length and the bytes of s.
func writeString(b *bytes.Buffer, s string) {
	b.Write(binary.LittleEndian.AppendUint16(nil, uint16(len(s))))
	b.WriteString(s)
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func writeF64(b *bytes.Buffer, v float64) { writeU64(b, math.Float64bits(v)) }
