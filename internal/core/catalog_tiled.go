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
// plus the tile directory — to a single database file that
// OpenTiledFile can query without rebuilding. Only LinearScan-inner tiled
// indexes can be saved.
func (t *TiledIndex) SaveFile(path string) error {
	if t.inner != MethodLinearScan {
		return fmt.Errorf("%w: %s has no on-disk format (only Tiled-LinearScan)", ErrNoPartition, t.label)
	}
	t.updMu.Lock()
	defer t.updMu.Unlock()
	disk, err := storage.OpenFileDisk(path, t.pager.PageSize())
	if err != nil {
		return err
	}
	defer disk.Close()
	if disk.NumPages() != 0 {
		return fmt.Errorf("core: %s is not empty", path)
	}
	for _, tl := range t.tiles {
		if err := tl.ex.heap.Flush(); err != nil {
			return err
		}
	}
	if err := t.pager.SnapshotTo(disk); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return writeCatalog(disk, t.encodeTiledCatalog())
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
		if tl.ex.sidecar != nil {
			codec = tl.ex.sidecar.Codec()
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
		ls := tl.ex
		pages := ls.heap.Pages()
		writeU64(&b, uint64(len(pages)))
		for _, id := range pages {
			writeU32(&b, uint32(id))
		}
		if ls.sidecar != nil {
			writeU32(&b, uint32(ls.sidecar.FirstPage()))
			writeU32(&b, uint32(ls.sidecar.NumPages()))
			writePageFirstPositions(&b, ls.rids)
			writeCodecTail(&b, codec, ls.sidecar)
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

// OpenTiledFile opens a database file produced by TiledIndex.SaveFile and
// returns a query-ready tiled planner backed by the file's pages. Updates
// work too: ApplyUpdates reattaches the caller's field to the owning tiles.
func OpenTiledFile(path string, model storage.DiskModel, pool int) (*TiledIndex, error) {
	return OpenTiledFileWith(path, OpenFileOptions{Model: model, PoolPages: pool})
}

// OpenStoredWith opens any database file written by SaveFile — untiled
// Partitioned or tiled — dispatching on the catalog's tile directory. The
// returned Engine is a *Partitioned or a *TiledIndex.
func OpenStoredWith(path string, opts OpenFileOptions) (Engine, error) {
	if opts.Model == (storage.DiskModel{}) {
		opts.Model = storage.DefaultDiskModel
	}
	disk, blob, err := readCatalogBlob(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	tiled := catalogTileCount(blob) > 0
	disk.Close()
	if tiled {
		return OpenTiledFileWith(path, opts)
	}
	return OpenFileWith(path, opts)
}

// OpenTiledFileWith is OpenTiledFile with the full option set.
func OpenTiledFileWith(path string, opts OpenFileOptions) (*TiledIndex, error) {
	if opts.Model == (storage.DiskModel{}) {
		opts.Model = storage.DefaultDiskModel
	}
	pageSize := storage.DefaultPageSize
	disk, blob, err := readCatalogBlob(path, pageSize)
	if err != nil {
		return nil, err
	}
	if catalogTileCount(blob) == 0 {
		disk.Close()
		return nil, fmt.Errorf("core: %s: untiled database file; open it with OpenFile", path)
	}
	t, err := decodeTiledCatalog(blob, storage.NewPagerShards(disk, opts.Model, opts.PoolPages, opts.PoolShards))
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return t, nil
}

// decodeTiledCatalog decodes the tiled directory of a catalog blob whose
// header checkCatalogHeader accepted.
func decodeTiledCatalog(blob []byte, pager *storage.Pager) (*TiledIndex, error) {
	r := &byteReader{buf: blob, off: catalogHeaderLen}
	numTiles := catalogTileCount(blob)
	methodLen := int(r.u16())
	method := make([]byte, methodLen)
	r.bytes(method)
	if Method(method) != MethodLinearScan {
		return nil, fmt.Errorf("tiled catalog has unsupported inner method %q", method)
	}
	codecLen := int(r.u16())
	codecBytes := make([]byte, codecLen)
	r.bytes(codecBytes)
	codec := string(codecBytes)
	if codec != "" && !storage.ValidSidecarCodec(codec) {
		return nil, fmt.Errorf("unknown sidecar codec %q", codec)
	}
	tileSide := int(r.u32())
	cells := int(r.u64())
	epoch := r.u64()
	if r.err != nil || numTiles <= 0 || numTiles > cells || tileSide < 2 || cells <= 0 || cells > 1<<30 {
		return nil, fmt.Errorf("corrupt tiled catalog header")
	}
	pager.SetEpoch(epoch)
	t := &TiledIndex{tiledCore: &tiledCore{
		inner:    MethodLinearScan,
		label:    string(tiledMethod(MethodLinearScan)),
		pager:    pager,
		tiles:    make([]*tile, 0, numTiles),
		tileOf:   make([]int32, cells),
		cells:    cells,
		tileSide: tileSide,
		workers:  1,
	}}
	parts := make([]*state, 0, numTiles)
	for i := range t.tileOf {
		t.tileOf[i] = -1
	}
	vr := make([]geom.Interval, 0, numTiles)
	covered := 0
	for ti := 0; ti < numTiles; ti++ {
		mbr := geom.Rect{
			Min: geom.Pt(r.f64(), r.f64()),
			Max: geom.Pt(r.f64(), r.f64()),
		}
		iv := geom.Interval{Lo: r.f64(), Hi: r.f64()}
		ncells := int(r.u64())
		if r.err != nil || ncells <= 0 || ncells > cells {
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
				t.tileOf[ids[i]] = int32(ti)
			}
		}
		numPages := int(r.u64())
		if r.err != nil || numPages <= 0 || numPages > 1<<28 {
			return nil, fmt.Errorf("corrupt tile %d heap geometry", ti)
		}
		heapPages := make([]storage.PageID, numPages)
		for i := range heapPages {
			heapPages[i] = storage.PageID(r.u32())
		}
		sidecarFirst := storage.PageID(r.u32())
		sidecarPages := int(r.u32())
		ls := &valueIndex{
			method: MethodLinearScan,
			pager:  pager,
			heap:   storage.OpenHeapFile(pager, heapPages, ncells),
			cells:  ncells,
		}
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
			sc, err := openSidecarAs(pager, codec, sidecarFirst, sidecarPages, ncells, firstPos)
			if err != nil {
				return nil, fmt.Errorf("tile %d: %w", ti, err)
			}
			ls.sidecar = sc
			ls.rids = ridsFromFirstPositions(heapPages, pageFirstPos, ncells)
		}
		// view stays nil: queries never touch it, and ApplyUpdates rebuilds
		// it from the caller's field on first use.
		ex := newExecutor(ls, &state{epoch: epoch})
		t.tiles = append(t.tiles, &tile{ids: ids, mbr: mbr, ex: ex})
		parts = append(parts, ex.snap.Load())
		vr = append(vr, iv)
		covered += ncells
	}
	tileArea := make([]float64, numTiles)
	for i := range tileArea {
		tileArea[i] = r.f64()
		t.totArea += tileArea[i]
	}
	t.tileArea = tileArea
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
	t.snap.Store(&tiledState{epoch: epoch, vr: vr, parts: parts})
	return t, nil
}
