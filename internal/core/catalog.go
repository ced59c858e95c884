package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/subfield"
)

// On-disk database file layout for a built partitioned index:
//
//	pages [0, N)       the build pager's pages verbatim — the Hilbert-ordered
//	                   cell heap file followed by the R*-tree nodes
//	pages [N, N+K)     the catalog blob (see below), split across pages
//	page  N+K          the superblock (last page of the file):
//	                   magic "FSUP", version u32, catalogStart u32,
//	                   catalogPages u32, blobLen u64
//
// Catalog blob (little endian):
//
//	magic "FCAT", version u32
//	tile count u32 (0 for an untiled file; > 0 selects the tiled directory
//	layout of catalog_tiled.go instead of the body below)
//	method: u16 length + bytes
//	cells u64
//	heap page count u64, then that many page ids u32
//	tree: root u32, nodes u32, height u32
//	group count u64, then per group:
//	    interval lo, hi f64; avg f64; firstPage, lastPage u32;
//	    startRef, endRef u64
//	cell order: cells × u32
//	interval-sidecar geometry: sidecar first page u32, sidecar pages u32
//	    and, when sidecar pages > 0:
//	        sidecar count u64
//	        heap page first-positions: heap page count × u32 (the heap
//	        position of each page's first record, for reconstructing
//	        position ↦ RID without reading cell pages)
//	live-update state:
//	    epoch u64 (the storage epoch the saved pages materialize; SaveFile
//	    writes the current epoch's overlay view into the base pages, so the
//	    opened store resumes epoch numbering instead of restarting at 0)
//	    cost epsilon f64, threshold max size f64 (the partitioning rule the
//	    index was built with, so update batches re-derive group boundaries
//	    with the same §3 cost bound)
//	sidecar codec name: u16 length + bytes (empty without a sidecar)
//	    and, for the packed codec, its page directory:
//	        first-position count u64, then that many u32 (the sidecar
//	        position of each packed page's first entry — variable-rate
//	        pages cannot derive it from arithmetic the way FSC1 does)
//	field-summary geometry: summary first page u32, summary pages u32 (0/0
//	    when the index carries no summary; the pages themselves — the
//	    encoded approx blob — ride in the snapshotted page range like tree
//	    and sidecar pages do)
//
// This is the one layout read or written. A file whose superblock or catalog
// header carries any other version is refused with ErrUnsupportedVersion
// before anything else in it is interpreted.
const catalogVersion = 5

// ErrUnsupportedVersion reports a database file whose superblock or catalog
// header names a catalog version other than the current one.
var ErrUnsupportedVersion = errors.New("core: unsupported catalog version")

var (
	catalogMagic    = [4]byte{'F', 'C', 'A', 'T'}
	superblockMagic = [4]byte{'F', 'S', 'U', 'P'}
)

// SaveFile writes the built index — cell heap, R*-tree pages, interval
// sidecar, and catalog — to a single database file that Open can query
// without rebuilding. Only the partitioned family has an on-disk format (the
// catalog stores a subfield tree; the planner's histogram has none).
func (e *executor) SaveFile(path string) error {
	if e.order == nil || e.cur().hist != nil {
		return fmt.Errorf("%w: method %s has no on-disk format", ErrNoPartition, e.label)
	}
	return e.saveFile(path, e.encodeCatalog)
}

// writeCatalog appends the catalog blob and the superblock that locates it
// to a disk already holding the index's pages, then closes the disk.
func writeCatalog(disk *storage.FileDisk, blob []byte) error {
	catalogStart := disk.NumPages()
	ps := disk.PageSize()
	for off := 0; off < len(blob); off += ps {
		end := off + ps
		if end > len(blob) {
			end = len(blob)
		}
		id, err := disk.Alloc()
		if err != nil {
			return err
		}
		page := make([]byte, ps)
		copy(page, blob[off:end])
		if err := disk.WritePage(id, page); err != nil {
			return err
		}
	}
	catalogPages := disk.NumPages() - catalogStart
	superID, err := disk.Alloc()
	if err != nil {
		return err
	}
	super := make([]byte, ps)
	copy(super[0:4], superblockMagic[:])
	binary.LittleEndian.PutUint32(super[4:8], catalogVersion)
	binary.LittleEndian.PutUint32(super[8:12], uint32(catalogStart))
	binary.LittleEndian.PutUint32(super[12:16], uint32(catalogPages))
	binary.LittleEndian.PutUint64(super[16:24], uint64(len(blob)))
	if err := disk.WritePage(superID, super); err != nil {
		return err
	}
	return disk.Close()
}

func (ix *valueIndex) encodeCatalog() []byte {
	st := ix.snap.Load()
	var b bytes.Buffer
	b.Write(catalogMagic[:])
	writeU32(&b, catalogVersion)
	writeU32(&b, 0) // tile count: the untiled layout
	writeU16(&b, uint16(len(ix.label)))
	b.WriteString(ix.label)
	writeU64(&b, uint64(ix.cells))
	pages := ix.heap.Pages()
	writeU64(&b, uint64(len(pages)))
	for _, id := range pages {
		writeU32(&b, uint32(id))
	}
	writeU32(&b, uint32(st.tree.RootPage()))
	writeU32(&b, uint32(st.tree.PersistedNodes()))
	writeU32(&b, uint32(st.tree.Height()))
	writeU64(&b, uint64(len(st.groups)))
	for _, g := range st.groups {
		writeF64(&b, g.interval.Lo)
		writeF64(&b, g.interval.Hi)
		writeF64(&b, g.avg)
		writeU32(&b, uint32(g.firstPage))
		writeU32(&b, uint32(g.lastPage))
		writeU64(&b, uint64(g.startRef))
		writeU64(&b, uint64(g.endRef))
	}
	for _, id := range ix.order {
		writeU32(&b, uint32(id))
	}
	codec := ""
	if ix.sidecar != nil && ix.sidecar.NumPages() > 0 {
		codec = ix.sidecar.Codec()
		writeU32(&b, uint32(ix.sidecar.FirstPage()))
		writeU32(&b, uint32(ix.sidecar.NumPages()))
		writeU64(&b, uint64(ix.sidecar.Count()))
		writePageFirstPositions(&b, ix.rids)
	} else {
		writeU32(&b, 0)
		writeU32(&b, 0)
	}
	writeU64(&b, st.epoch)
	writeF64(&b, ix.cost.Epsilon)
	writeF64(&b, ix.maxSize)
	writeCodecTail(&b, codec, ix.sidecar)
	writeU32(&b, uint32(ix.sumFirst))
	writeU32(&b, uint32(ix.sumPages))
	return b.Bytes()
}

// writePageFirstPositions appends the first heap position of every heap
// page, so opening the file can rebuild position ↦ RID (slots are
// append-ordered within a page) without touching cell pages.
func writePageFirstPositions(b *bytes.Buffer, rids []storage.RID) {
	var prev storage.PageID
	for pos, rid := range rids {
		if pos == 0 || rid.Page != prev {
			writeU32(b, uint32(pos))
			prev = rid.Page
		}
	}
}

// writeCodecTail appends the sidecar-codec section: the codec name and, for packed sidecars, the page directory OpenIntervalSidecarPacked
// needs to reopen them.
func writeCodecTail(b *bytes.Buffer, codec string, sc *storage.IntervalSidecar) {
	writeU16(b, uint16(len(codec)))
	b.WriteString(codec)
	if codec == storage.SidecarCodecPacked {
		fp := sc.PageFirstPositions()
		writeU64(b, uint64(len(fp)))
		for _, v := range fp {
			writeU32(b, v)
		}
	}
}

// readCodecTail decodes writeCodecTail's section, validating the directory
// against the declared page count.
func readCodecTail(r *byteReader, sidecarPages int) (codec string, firstPos []uint32, err error) {
	codecLen := int(r.u16())
	if r.err != nil || codecLen > 64 {
		return "", nil, fmt.Errorf("corrupt sidecar codec")
	}
	codec = string(r.take(codecLen))
	if codec != "" && !storage.ValidSidecarCodec(codec) {
		return "", nil, fmt.Errorf("unknown sidecar codec %q", codec)
	}
	if codec == storage.SidecarCodecPacked {
		n := int(r.u64())
		if r.err != nil || n != sidecarPages || !r.fits(n, 4) {
			return "", nil, fmt.Errorf("corrupt packed sidecar directory")
		}
		firstPos = make([]uint32, n)
		for i := range firstPos {
			firstPos[i] = r.u32()
		}
	}
	return codec, firstPos, nil
}

// Open opens a database file written by SaveFile — untiled or tiled — and
// returns a query-ready index backed by the file's pages: an untiled executor
// or the tiled planner, whichever the catalog's tile directory says. The file
// is opened and its catalog read once; a file at any other catalog version is
// refused before anything else in it is interpreted. poolPages is the
// buffer-pool capacity in pages; 0 disables caching (strict cold-cache
// accounting). Updates work on both: ApplyUpdates takes the caller's field.
func Open(path string, poolPages int) (Engine, error) {
	disk, blob, err := readCatalogBlob(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	pager := storage.NewPager(disk, storage.DefaultDiskModel, poolPages)
	var eng Engine
	if catalogTileCount(blob) > 0 {
		eng, err = decodeTiledCatalog(blob, pager)
	} else {
		eng, err = decodeCatalog(blob, pager)
	}
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return eng, nil
}

// readCatalogBlob opens a database file, validates its superblock, and
// returns the open disk plus the catalog blob. The caller owns closing the
// disk (directly or through the pager built over it).
func readCatalogBlob(path string, pageSize int) (*storage.FileDisk, []byte, error) {
	disk, err := storage.OpenFileDisk(path, pageSize)
	if err != nil {
		return nil, nil, err
	}
	n := disk.NumPages()
	if n < 2 {
		disk.Close()
		return nil, nil, fmt.Errorf("core: %s: too small to be a database file", path)
	}
	buf := make([]byte, pageSize)
	if err := disk.ReadPage(storage.PageID(n-1), buf); err != nil {
		disk.Close()
		return nil, nil, err
	}
	if !bytes.Equal(buf[0:4], superblockMagic[:]) {
		disk.Close()
		return nil, nil, fmt.Errorf("core: %s: bad superblock magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != catalogVersion {
		disk.Close()
		return nil, nil, fmt.Errorf("core: %s: superblock: %w %d", path, ErrUnsupportedVersion, v)
	}
	catalogStart := int(binary.LittleEndian.Uint32(buf[8:12]))
	catalogPages := int(binary.LittleEndian.Uint32(buf[12:16]))
	blobLen := int(binary.LittleEndian.Uint64(buf[16:24]))
	if catalogStart < 0 || catalogPages <= 0 || catalogStart+catalogPages != n-1 ||
		blobLen <= 0 || blobLen > catalogPages*pageSize {
		disk.Close()
		return nil, nil, fmt.Errorf("core: %s: corrupt superblock", path)
	}
	blob := make([]byte, 0, catalogPages*pageSize)
	for i := 0; i < catalogPages; i++ {
		if err := disk.ReadPage(storage.PageID(catalogStart+i), buf); err != nil {
			disk.Close()
			return nil, nil, err
		}
		blob = append(blob, buf...)
	}
	blob = blob[:blobLen]
	if err := checkCatalogHeader(blob); err != nil {
		disk.Close()
		return nil, nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return disk, blob, nil
}

// catalogHeaderLen is the fixed catalog prefix every layout shares: magic,
// version, tile count. groupMetaLen is one encoded group of the untiled body.
const (
	catalogHeaderLen = 12
	groupMetaLen     = 3*8 + 2*4 + 2*8
)

// checkCatalogHeader validates a catalog blob's magic and version — the gate
// in front of both decoders, so neither interprets a layout it was not
// written for.
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

// catalogTileCount reads a validated catalog blob's tile-count
// discriminator: 0 for the untiled layout, the tile count for a tiled
// directory.
func catalogTileCount(blob []byte) int {
	return int(binary.LittleEndian.Uint32(blob[8:12]))
}

// readPageFirstPositions decodes writePageFirstPositions' section for a heap
// of numPages pages holding cells records, rejecting positions that do not
// start at 0 and ascend strictly below cells.
func readPageFirstPositions(r *byteReader, numPages, cells int) ([]int, error) {
	if !r.fits(numPages, 4) {
		return nil, r.err
	}
	firstPos := make([]int, numPages)
	for i := range firstPos {
		firstPos[i] = int(r.u32())
		if r.err == nil && (firstPos[i] >= cells ||
			(i == 0 && firstPos[i] != 0) ||
			(i > 0 && firstPos[i] <= firstPos[i-1])) {
			return nil, fmt.Errorf("corrupt page positions")
		}
	}
	return firstPos, nil
}

// ridsFromFirstPositions rebuilds position ↦ RID from the per-page first
// positions: slots are assigned in append order within each page.
func ridsFromFirstPositions(heapPages []storage.PageID, firstPos []int, cells int) []storage.RID {
	rids := make([]storage.RID, cells)
	for pi, id := range heapPages {
		next := cells
		if pi+1 < len(firstPos) {
			next = firstPos[pi+1]
		}
		for pos := firstPos[pi]; pos < next; pos++ {
			rids[pos] = storage.RID{Page: id, Slot: uint16(pos - firstPos[pi])}
		}
	}
	return rids
}

// openSidecarAs reopens a persisted sidecar segment under its saved codec.
func openSidecarAs(pager *storage.Pager, codec string, first storage.PageID, pages, count int, firstPos []uint32) (*storage.IntervalSidecar, error) {
	if codec == storage.SidecarCodecPacked {
		return storage.OpenIntervalSidecarPacked(pager, first, count, firstPos)
	}
	return storage.OpenIntervalSidecar(pager, first, pages, count)
}

// decodeCatalog decodes the untiled body of a catalog blob whose header
// checkCatalogHeader accepted, and opens the index it describes over pager.
func decodeCatalog(blob []byte, pager *storage.Pager) (Engine, error) {
	r := &byteReader{buf: blob, off: catalogHeaderLen}
	method := string(r.take(int(r.u16())))
	cells := int(r.u64())
	numPages := int(r.u64())
	if numPages <= 0 || numPages > 1<<28 || !r.fits(numPages, 4) {
		return nil, fmt.Errorf("corrupt catalog header")
	}
	// Only a curve-ordered partition without a planner has this layout.
	m := methods[Method(method)]
	if m == nil || m.cut == nil || m.plans {
		return nil, fmt.Errorf("catalog has unsupported method %q", method)
	}
	heapPages := make([]storage.PageID, numPages)
	for i := range heapPages {
		heapPages[i] = storage.PageID(r.u32())
	}
	treeRoot := storage.PageID(r.u32())
	treeNodes := int(r.u32())
	treeHeight := int(r.u32())
	numGroups := int(r.u64())
	if numGroups <= 0 || numGroups > cells || !r.fits(numGroups, groupMetaLen) {
		return nil, fmt.Errorf("corrupt catalog group count")
	}
	groups := make([]groupMeta, numGroups)
	pos := 0
	for i := range groups {
		groups[i] = groupMeta{
			interval:  geom.Interval{Lo: r.f64(), Hi: r.f64()},
			avg:       r.f64(),
			firstPage: int(r.u32()),
			lastPage:  int(r.u32()),
		}
		groups[i].startRef = int(r.u64())
		groups[i].endRef = int(r.u64())
		groups[i].cells = groups[i].endRef - groups[i].startRef
		if r.err != nil {
			break
		}
		// Groups must tile [0, cells) and reference valid heap pages; a
		// violated invariant means a corrupt (or hostile) file.
		g := groups[i]
		if g.startRef != pos || g.endRef <= g.startRef || g.endRef > cells ||
			g.firstPage < 0 || g.lastPage < g.firstPage || g.lastPage >= numPages {
			return nil, fmt.Errorf("corrupt catalog group %d", i)
		}
		pos = g.endRef
	}
	if r.err == nil && pos != cells {
		return nil, fmt.Errorf("catalog groups cover %d of %d cells", pos, cells)
	}
	if !r.fits(cells, 4) {
		return nil, fmt.Errorf("catalog truncated")
	}
	// The order must be a permutation of the cell ids: posOf, its inverse, is
	// how updates and point queries locate a cell's record.
	order := make([]field.CellID, cells)
	posOf := make([]int32, cells)
	for i := range posOf {
		posOf[i] = -1
	}
	for i := range order {
		order[i] = field.CellID(r.u32())
		if int(order[i]) >= cells || posOf[order[i]] != -1 {
			return nil, fmt.Errorf("corrupt catalog cell order at position %d", i)
		}
		posOf[order[i]] = int32(i)
	}
	sidecarFirst := storage.PageID(r.u32())
	sidecarPages := int(r.u32())
	var pageFirstPos []int
	if sidecarPages > 0 {
		if sidecarCount := int(r.u64()); r.err != nil || sidecarCount != cells {
			return nil, fmt.Errorf("corrupt sidecar geometry")
		}
		var err error
		if pageFirstPos, err = readPageFirstPositions(r, numPages, cells); err != nil {
			return nil, fmt.Errorf("sidecar: %w", err)
		}
	}
	epoch := r.u64()
	epsilon := r.f64()
	maxSize := r.f64()
	if r.err == nil && (math.IsNaN(epsilon) || epsilon < 0 || math.IsNaN(maxSize) || maxSize < 0) {
		return nil, fmt.Errorf("corrupt update state")
	}
	codec, sidecarFirstPos, err := readCodecTail(r, sidecarPages)
	if err != nil {
		return nil, err
	}
	sumFirst := storage.PageID(r.u32())
	sumPages := int(r.u32())
	if r.err == nil && (sumPages < 0 || sumPages > 1<<16) {
		return nil, fmt.Errorf("corrupt summary geometry")
	}
	if r.err != nil {
		return nil, fmt.Errorf("catalog truncated")
	}
	// Resume epoch numbering where the saved store left off: SaveFile
	// materialized that epoch's overlay view into the base pages, so the
	// opened store is that epoch, verbatim.
	pager.SetEpoch(epoch)
	p := &partition{
		heap:  storage.OpenHeapFile(pager, heapPages, cells),
		cells: cells,
		order: order,
		posOf: posOf,
		// The partitioning rule update batches re-derive group boundaries with.
		cut:     m.cut,
		cost:    subfield.CostModel{Epsilon: epsilon},
		maxSize: maxSize,
	}
	tree, err := rstar.OpenPaged(pager, treeRoot, 1,
		rstar.Params{PageSize: pager.PageSize()}, len(groups), treeNodes, treeHeight)
	if err != nil {
		return nil, err
	}
	if sidecarPages > 0 {
		if p.sidecar, err = openSidecarAs(pager, codec, sidecarFirst, sidecarPages, cells, sidecarFirstPos); err != nil {
			return nil, err
		}
		p.rids = ridsFromFirstPositions(heapPages, pageFirstPos, cells)
	}
	m.bind(p)
	ix := &valueIndex{partition: p}
	ix.label, ix.pager, ix.parts = method, pager, []*partition{p}
	ix.sumFirst, ix.sumPages = sumFirst, sumPages
	return newExecutor(ix, &state{epoch: epoch, tree: tree, groups: groups}), nil
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

func writeU16(b *bytes.Buffer, v uint16) {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	b.Write(tmp[:])
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
