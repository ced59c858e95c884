package core

import (
	"bytes"
	"fmt"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// Tiled catalog layout (tile count > 0). After the shared header (magic
// "FCAT", version u32, tile count u32):
//
//	inner method: u16 length + bytes (always "LinearScan" today)
//	codec: u16 length + bytes (shared by every tile's sidecar)
//	tile side u32
//	total cells u64
//	epoch u64
//	per tile, in tile order:
//	    MBR: min.x, min.y, max.x, max.y f64
//	    value summary: lo, hi f64
//	    cell count u64, then that many parent cell ids u32 (ascending)
//	    heap page count u64, then that many page ids u32
//	    sidecar first page u32, sidecar pages u32
//	    and, when sidecar pages > 0:
//	        heap page first-positions: heap page count × u32
//	        codec tail: for the packed codec, first-position count u64 +
//	        that many u32 (see writeCodecTail)
//	the aggregate tier's tail:
//	    per tile, in tile order: total cell area f64 (the covered-tile
//	    composition weight)
//	    global summary first page u32, summary pages u32 (0/0 when absent)
//
// The per-tile MBR and value summary ARE the planner's prune inputs, so an
// opened file prunes exactly like the build it was saved from. Only
// Tiled-LinearScan indexes have an on-disk format — the partitioned inner
// methods would need a subfield tree per tile, which nothing requires yet.

// SaveFile writes the tiled index — every tile's heap segment and sidecar,
// plus the tile directory — to a single database file that Open can query
// without rebuilding. Only LinearScan-inner tiled indexes can be saved.
func (t *TiledIndex) SaveFile(path string) error {
	if t.inner != MethodLinearScan {
		return fmt.Errorf("%w: %s has no on-disk format (only Tiled-LinearScan)", ErrNoPartition, t.label)
	}
	return t.saveFile(path, t.encodeTiledCatalog)
}

func (t *TiledIndex) encodeTiledCatalog() []byte {
	s := t.snap.Load()
	var b bytes.Buffer
	b.Write(catalogMagic[:])
	writeU32(&b, catalogVersion)
	writeU32(&b, uint32(len(t.tiles)))
	method := []byte(t.inner)
	writeU16(&b, uint16(len(method)))
	b.Write(method)
	codec := ""
	for _, tl := range t.tiles {
		if tl.sidecar != nil {
			codec = tl.sidecar.Codec()
			break
		}
	}
	writeU16(&b, uint16(len(codec)))
	b.WriteString(codec)
	writeU32(&b, uint32(t.tileSide))
	writeU64(&b, uint64(t.cells))
	writeU64(&b, s.epoch)
	for ti, tl := range t.tiles {
		writeF64(&b, tl.mbr.Min.X)
		writeF64(&b, tl.mbr.Min.Y)
		writeF64(&b, tl.mbr.Max.X)
		writeF64(&b, tl.mbr.Max.Y)
		writeF64(&b, s.vr[ti].Lo)
		writeF64(&b, s.vr[ti].Hi)
		writeU64(&b, uint64(len(tl.ids)))
		for _, id := range tl.ids {
			writeU32(&b, uint32(id))
		}
		pages := tl.heap.Pages()
		writeU64(&b, uint64(len(pages)))
		for _, id := range pages {
			writeU32(&b, uint32(id))
		}
		if tl.sidecar != nil {
			writeU32(&b, uint32(tl.sidecar.FirstPage()))
			writeU32(&b, uint32(tl.sidecar.NumPages()))
			writePageFirstPositions(&b, tl.rids)
			writeCodecTail(&b, codec, tl.sidecar)
		} else {
			writeU32(&b, 0)
			writeU32(&b, 0)
		}
	}
	for ti := range t.tiles {
		writeF64(&b, t.tileArea[ti])
	}
	writeU32(&b, uint32(t.sumFirst))
	writeU32(&b, uint32(t.sumPages))
	return b.Bytes()
}

// minTileLen is the smallest encoded tile: MBR, value summary, the two counts
// with one cell id and one heap page, the sidecar geometry, and its area in
// the aggregate tail.
const minTileLen = 4*8 + 2*8 + (8 + 4) + (8 + 4) + 2*4 + 8

// decodeTiledCatalog decodes the tiled directory of a catalog blob whose
// header checkCatalogHeader accepted, and opens the planner it describes over
// pager.
func decodeTiledCatalog(blob []byte, pager *storage.Pager) (Engine, error) {
	r := &byteReader{buf: blob, off: catalogHeaderLen}
	numTiles := catalogTileCount(blob)
	if method := string(r.take(int(r.u16()))); Method(method) != MethodLinearScan {
		return nil, fmt.Errorf("tiled catalog has unsupported inner method %q", method)
	}
	codec := string(r.take(int(r.u16())))
	if codec != "" && !storage.ValidSidecarCodec(codec) {
		return nil, fmt.Errorf("unknown sidecar codec %q", codec)
	}
	tileSide := int(r.u32())
	cells := int(r.u64())
	epoch := r.u64()
	// Every cell id is a u32 somewhere in the directory, and every tile a
	// record of at least minTileLen bytes.
	if numTiles <= 0 || numTiles > cells || tileSide < 2 || cells <= 0 || cells > 1<<30 ||
		!r.fits(cells, 4) || !r.fits(numTiles, minTileLen) {
		return nil, fmt.Errorf("corrupt tiled catalog header")
	}
	pager.SetEpoch(epoch)
	t := newTiled(pager, MethodLinearScan, cells, tileSide, numTiles)
	st := &state{epoch: epoch, vr: make([]geom.Interval, 0, numTiles), parts: make([]*state, 0, numTiles)}
	for i := range t.tileOf {
		t.tileOf[i] = -1
	}
	scan := methods[MethodLinearScan]
	covered := 0
	for ti := 0; ti < numTiles; ti++ {
		mbr := geom.Rect{
			Min: geom.Pt(r.f64(), r.f64()),
			Max: geom.Pt(r.f64(), r.f64()),
		}
		iv := geom.Interval{Lo: r.f64(), Hi: r.f64()}
		ncells := int(r.u64())
		if ncells <= 0 || ncells > cells || !r.fits(ncells, 4) {
			return nil, fmt.Errorf("corrupt tile %d header", ti)
		}
		ids := make([]field.CellID, ncells)
		for i := range ids {
			ids[i] = field.CellID(r.u32())
			if r.err == nil {
				// Every cell belongs to exactly one tile and tile id lists
				// ascend — the gather step's no-ties invariant.
				if int(ids[i]) >= cells || t.tileOf[ids[i]] != -1 || (i > 0 && ids[i] <= ids[i-1]) {
					return nil, fmt.Errorf("corrupt tile %d cell ids", ti)
				}
			}
		}
		numPages := int(r.u64())
		if numPages <= 0 || numPages > 1<<28 || !r.fits(numPages, 4) {
			return nil, fmt.Errorf("corrupt tile %d heap geometry", ti)
		}
		heapPages := make([]storage.PageID, numPages)
		for i := range heapPages {
			heapPages[i] = storage.PageID(r.u32())
		}
		sidecarFirst := storage.PageID(r.u32())
		sidecarPages := int(r.u32())
		p := &partition{heap: storage.OpenHeapFile(pager, heapPages, ncells), cells: ncells}
		if sidecarPages > 0 {
			pageFirstPos, err := readPageFirstPositions(r, numPages, ncells)
			if err != nil {
				return nil, fmt.Errorf("tile %d: %w", ti, err)
			}
			tileCodec, firstPos, cerr := readCodecTail(r, sidecarPages)
			if cerr != nil {
				return nil, fmt.Errorf("tile %d: %w", ti, cerr)
			}
			if tileCodec != codec {
				return nil, fmt.Errorf("tile %d codec %q differs from directory codec %q", ti, tileCodec, codec)
			}
			if p.sidecar, err = openSidecarAs(pager, codec, sidecarFirst, sidecarPages, ncells, firstPos); err != nil {
				return nil, fmt.Errorf("tile %d: %w", ti, err)
			}
			p.rids = ridsFromFirstPositions(heapPages, pageFirstPos, ncells)
		}
		scan.bind(p)
		// view stays nil: queries never touch it, and ApplyUpdates attaches
		// the caller's field on first use. The areas follow the directory.
		t.add(&tile{partition: p, ids: ids, mbr: mbr}, 0)
		st.vr = append(st.vr, iv)
		st.parts = append(st.parts, &state{epoch: epoch})
		covered += ncells
	}
	for i := range t.tileArea {
		t.tileArea[i] = r.f64()
		t.totArea += t.tileArea[i]
	}
	t.sumFirst = storage.PageID(r.u32())
	t.sumPages = int(r.u32())
	if r.err == nil && (t.sumPages < 0 || t.sumPages > 1<<16) {
		return nil, fmt.Errorf("corrupt summary geometry")
	}
	if r.err != nil {
		return nil, fmt.Errorf("catalog truncated")
	}
	if covered != cells {
		return nil, fmt.Errorf("tiles cover %d of %d cells", covered, cells)
	}
	t.snap.Store(st)
	return t, nil
}
