package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// RID identifies a record inside a HeapFile: a page and a slot within it.
// RIDs order records physically: scanning from one RID to a later one walks
// contiguous pages, which is exactly what the paper's subfield leaf entries
// (ptr_start, ptr_end) exploit for sequential I/O.
type RID struct {
	Page PageID
	Slot uint16
}

// Less reports whether r precedes o in physical order.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Page layout (little endian):
//
//	[0:2)  numSlots
//	[2:4)  freeStart — offset of the first unused data byte
//	then record payloads growing upward from offset 4,
//	and the slot directory growing downward from the page end,
//	4 bytes per slot: uint16 offset, uint16 length.
const (
	pageHeaderSize = 4
	slotEntrySize  = 4
)

// ErrRecordTooLarge is returned when a record cannot fit in an empty page.
var ErrRecordTooLarge = errors.New("storage: record too large for page")

// ErrBadRID is returned when a RID does not address a stored record.
var ErrBadRID = errors.New("storage: invalid record id")

// HeapFile stores variable-length records in slotted pages, append-only.
// fielddb stores field cells in a HeapFile in Hilbert order, so that the
// cells of one subfield occupy a contiguous run of pages. A record's heap
// position — its rank in append order — is its address: the file keeps each
// page's first position, 4 bytes a page, and resolves a position to its page
// and slot through that table (Locate, PageOf, Cursor) instead of holding a
// RID per record.
type HeapFile struct {
	pager *Pager
	pages []PageID // pages of this file, in append order
	// starts holds each page's first position: page i holds positions
	// [starts[i], starts[i+1]) — the last page up to count — in slot order.
	starts   []uint32
	curBuf   []byte // working copy of the last page
	curDirty bool
	count    int  // total records
	readOnly bool // reopened from a catalog; appends rejected
}

// NewHeapFile creates an empty heap file on the given pager.
func NewHeapFile(pager *Pager) *HeapFile {
	return &HeapFile{pager: pager}
}

// OpenHeapFile reopens a heap file from what a catalog records of it: its
// page ids, each page's first position (PageStarts) and its record count. It
// refuses a table that does not cut [0, count) into one run per page — page
// ids ascending, first positions ascending from 0, no page holding more
// records than a page has slots — so every position resolves to one page and
// slot. The file keeps both slices: the caller must not modify them. It is
// read-only in spirit: appending after reopening would clobber the tail page,
// so Append returns an error.
func OpenHeapFile(pager *Pager, pages []PageID, starts []uint32, count int) (*HeapFile, error) {
	maxSlots := (pager.PageSize() - pageHeaderSize) / slotEntrySize
	if len(starts) != len(pages) || (count > 0) != (len(pages) > 0) {
		return nil, fmt.Errorf("storage: heap of %d records over %d pages with %d first positions", count, len(pages), len(starts))
	}
	for i, s := range starts {
		end := count
		if i+1 < len(starts) {
			end = int(starts[i+1])
		}
		if (i == 0) != (s == 0) || int(s) >= end || end-int(s) > maxSlots || (i > 0 && pages[i] <= pages[i-1]) {
			return nil, fmt.Errorf("storage: heap page %d: corrupt first position or page order", i)
		}
	}
	return &HeapFile{pager: pager, pages: pages, starts: starts, count: count, readOnly: true}, nil
}

// Count returns the number of records appended so far.
func (h *HeapFile) Count() int { return h.count }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Pages returns the file's page ids in physical order. The slice must not be
// modified.
func (h *HeapFile) Pages() []PageID { return h.pages }

// PageStarts returns the position of each page's first record, in page
// order — the table a catalog persists and OpenHeapFile takes back. The slice
// must not be modified.
func (h *HeapFile) PageStarts() []uint32 { return h.starts }

// PageSpan returns the positions [start, end) page index pi holds.
func (h *HeapFile) PageSpan(pi int) (start, end int) {
	end = h.count
	if pi+1 < len(h.starts) {
		end = int(h.starts[pi+1])
	}
	return int(h.starts[pi]), end
}

// PageOf returns the index, in the file's page list, of the page holding
// position pos — a binary search of the first positions. A position outside
// [0, Count()) fails with ErrBadRID.
func (h *HeapFile) PageOf(pos int) (int, error) {
	if pos < 0 || pos >= h.count {
		return 0, fmt.Errorf("%w: position %d of %d", ErrBadRID, pos, h.count)
	}
	return pageOfPosition(h.starts, pos), nil
}

// pageOfPosition returns the index of the page holding pos in a table of
// ascending first positions from 0 — a heap file's or a packed sidecar's: the
// last page starting at or before pos.
func pageOfPosition(starts []uint32, pos int) int {
	i, found := slices.BinarySearch(starts, uint32(pos))
	if !found {
		i--
	}
	return i
}

// Locate returns the RID of the record at position pos: the RID Append
// returned for it.
func (h *HeapFile) Locate(pos int) (RID, error) {
	pi, err := h.PageOf(pos)
	if err != nil {
		return RID{}, err
	}
	return RID{Page: h.pages[pi], Slot: uint16(pos - int(h.starts[pi]))}, nil
}

// Cursor resolves ascending positions to pages, each from the page of the
// one before: a step within a page or onto the next costs a comparison or
// two, a longer one a binary search of the pages ahead. It reads the table
// without copying it, so a scan over a filter's sorted positions allocates
// nothing.
type Cursor struct {
	h  *HeapFile
	pi int // the page of the last position resolved
}

// Cursor returns a cursor at the file's first page.
func (h *HeapFile) Cursor() Cursor { return Cursor{h: h} }

// Page returns the index, in the file's page list, of the page holding pos,
// which must lie in [0, Count()) and not before the position the cursor
// resolved last.
func (c *Cursor) Page(pos int) int {
	st := c.h.starts
	if next := c.pi + 1; next < len(st) && int(st[next]) <= pos {
		c.pi = next
		if next+1 < len(st) && int(st[next+1]) <= pos {
			c.pi += pageOfPosition(st[next:], pos)
		}
	}
	return c.pi
}

// Append stores rec and returns its RID. Records are packed into the current
// tail page until it is full.
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if h.readOnly {
		return RID{}, errors.New("storage: heap file reopened read-only")
	}
	ps := h.pager.PageSize()
	if len(rec)+pageHeaderSize+slotEntrySize > ps {
		return RID{}, fmt.Errorf("%w: %d bytes, page size %d", ErrRecordTooLarge, len(rec), ps)
	}
	if h.curBuf == nil || !h.fits(len(rec)) {
		if err := h.Flush(); err != nil {
			return RID{}, err
		}
		id, err := h.pager.Alloc()
		if err != nil {
			return RID{}, err
		}
		h.pages = append(h.pages, id)
		h.starts = append(h.starts, uint32(h.count))
		h.curBuf = make([]byte, ps)
		binary.LittleEndian.PutUint16(h.curBuf[2:4], pageHeaderSize)
	}
	buf := h.curBuf
	n := binary.LittleEndian.Uint16(buf[0:2])
	free := binary.LittleEndian.Uint16(buf[2:4])
	copy(buf[free:], rec)
	slotOff := len(buf) - int(n+1)*slotEntrySize
	binary.LittleEndian.PutUint16(buf[slotOff:], free)
	binary.LittleEndian.PutUint16(buf[slotOff+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(buf[0:2], n+1)
	binary.LittleEndian.PutUint16(buf[2:4], free+uint16(len(rec)))
	h.curDirty = true
	h.count++
	return RID{Page: h.pages[len(h.pages)-1], Slot: n}, nil
}

// fits reports whether a record of the given length fits in the tail page.
func (h *HeapFile) fits(recLen int) bool {
	buf := h.curBuf
	n := int(binary.LittleEndian.Uint16(buf[0:2]))
	free := int(binary.LittleEndian.Uint16(buf[2:4]))
	dirStart := len(buf) - (n+1)*slotEntrySize
	return free+recLen <= dirStart
}

// Flush writes the tail page to disk if it has unsaved records.
func (h *HeapFile) Flush() error {
	if h.curBuf == nil || !h.curDirty {
		return nil
	}
	if err := h.pager.WritePage(h.pages[len(h.pages)-1], h.curBuf); err != nil {
		return err
	}
	h.curDirty = false
	return nil
}

// GetCtx reads the record at rid through qc, so the (typically random) page
// access is charged to that query's accounting. Only the record itself is
// copied into buf (grown if needed), out of the page image ReadRun hands
// over; the returned slice is valid until the caller's next use of buf.
func (h *HeapFile) GetCtx(qc *QueryCtx, rid RID, buf []byte) ([]byte, error) {
	var recErr error
	err := qc.ReadRun(rid.Page, rid.Page, func(_ PageID, page []byte) bool {
		var rec []byte
		if rec, recErr = RecordInPage(page, rid.Slot); recErr == nil {
			buf = append(buf[:0], rec...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return buf, recErr
}

// PageSlots returns how many slots a heap-file page image claims: the records
// of the page are slots [0, n), each one RecordInPage's to check. A page too
// short for its header fails with ErrBadRID.
func PageSlots(page []byte) (int, error) {
	if len(page) < pageHeaderSize {
		return 0, fmt.Errorf("%w: page of %d bytes", ErrBadRID, len(page))
	}
	return int(binary.LittleEndian.Uint16(page)), nil
}

// SlotRecord is RecordInPage without the error: slot s of a heap-file page
// image, ok false exactly where RecordInPage fails — a slot past the page's
// count, a directory entry that would reach into the header or past the page
// (however many slots the page claims), a record past the page's end. It
// builds no error, so it inlines: a walk over a page's records pays no call
// per record and asks RecordInPage for the error of the one it refuses.
func SlotRecord(page []byte, s int) (rec []byte, ok bool) {
	d := len(page) - (s+1)*slotEntrySize
	if d < pageHeaderSize || uint(s) >= uint(binary.LittleEndian.Uint16(page)) {
		return nil, false
	}
	off := int(binary.LittleEndian.Uint16(page[d:]))
	end := off + int(binary.LittleEndian.Uint16(page[d+2:]))
	if end > len(page) {
		return nil, false
	}
	return page[off:end], true
}

// RecordInPage extracts slot s from a heap-file page image — the slot
// arithmetic behind GetCtx, exported for readers that already hold a page
// (the refinement fetches whole pages through ReadRun and picks out records
// by slot). A slot the page does not hold fails with ErrBadRID.
func RecordInPage(buf []byte, s uint16) ([]byte, error) {
	if rec, ok := SlotRecord(buf, int(s)); ok {
		return rec, nil
	}
	n, err := PageSlots(buf)
	switch {
	case err != nil:
		return nil, err
	case int(s) >= n:
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadRID, s, n)
	default:
		return nil, fmt.Errorf("%w: slot %d out of page bounds", ErrBadRID, s)
	}
}

// PatchRecordInPage overwrites slot s of a heap-file page image with rec,
// which must have exactly the stored record's length — the rewrite-in-place
// contract of value updates, where a cell's geometry (and so its encoded
// size) never changes. The page image is modified in place; callers stage it
// as a copy-on-write overlay rather than writing the base page.
func PatchRecordInPage(buf []byte, s uint16, rec []byte) error {
	old, err := RecordInPage(buf, s)
	if err != nil {
		return err
	}
	if len(old) != len(rec) {
		return fmt.Errorf("storage: patch record length %d != stored %d", len(rec), len(old))
	}
	copy(old, rec)
	return nil
}

// ScanPagesCtx visits, in physical order, the records on the file's pages
// with index in [first, last] (inclusive, indices into the file's page list,
// clamped to the file), the reads charged to r — ScanRunsCtx over one run,
// record by record. Consecutive pages are charged at sequential cost, which is
// what makes a scan cheaper per page than random candidate fetches. The
// callback receives the record's RID and payload (valid only during the
// call); returning false stops the scan early. A slot the page does not hold
// ends the scan with RecordInPage's error.
func (h *HeapFile) ScanPagesCtx(r PageReader, first, last int, fn func(rid RID, rec []byte) bool) error {
	var recErr error
	err := h.ScanRunsCtx(r, 1, func(int) (int, int, error) { return first, last, nil }, func(id PageID, page []byte) bool {
		n, err := PageSlots(page)
		for slot := 0; slot < n && err == nil; slot++ {
			var rec []byte
			if rec, err = RecordInPage(page, uint16(slot)); err == nil && !fn(RID{Page: id, Slot: uint16(slot)}, rec) {
				return false
			}
		}
		recErr = err
		return err == nil
	})
	if err == nil {
		err = recErr
	}
	return err
}

// ScanRunsCtx hands fn, in order, the page images of n runs of the file's
// pages, the reads charged to r. run(i) gives run i's inclusive bounds as
// indices into the file's page list (clamped to the file), or an error that
// ends the scan and is returned — where a caller polls its context between
// runs. Each maximal physically contiguous stretch of a run is fetched through
// one ReadRun: one batched pool interaction and at most one disk call per
// missing sub-run, charged page by page in order. A page image is valid only
// during its call; fn returning false stops the whole scan. One pooled page
// visitor serves the whole scan, so a scan allocates nothing however many
// runs it walks, and the caller walks each page's slots itself (PageSlots,
// SlotRecord) — the refinement's record kernel does, one page at a time.
func (h *HeapFile) ScanRunsCtx(r PageReader, n int, run func(i int) (first, last int, err error), fn func(id PageID, page []byte) bool) error {
	if err := h.Flush(); err != nil {
		return err
	}
	s := runScans.Get().(*runScan)
	s.fn, s.more = fn, true
	defer func() {
		s.fn = nil
		runScans.Put(s)
	}()
	for i := 0; i < n && s.more; i++ {
		first, last, err := run(i)
		if err != nil {
			return err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(h.pages) {
			last = len(h.pages) - 1
		}
		for first <= last && s.more {
			// Heap files built on a fresh disk are contiguous throughout;
			// interleaved allocation (heap pages mixed with index pages) splits the
			// range where the page ids jump.
			end := first
			for end < last && h.pages[end+1] == h.pages[end]+1 {
				end++
			}
			if err := r.ReadRun(h.pages[first], h.pages[end], s.visit); err != nil {
				return err
			}
			first = end + 1
		}
	}
	return nil
}

// runScan is the page visitor of one ScanRunsCtx call: more goes false when
// fn stops the scan. visit is its page method, bound once when the pool makes
// it.
type runScan struct {
	fn    func(id PageID, page []byte) bool
	more  bool
	visit func(id PageID, page []byte) bool
}

var runScans = sync.Pool{New: func() any {
	s := new(runScan)
	s.visit = s.page
	return s
}}

func (s *runScan) page(id PageID, page []byte) bool {
	s.more = s.fn(id, page)
	return s.more
}

// PageIndex returns the position of page id within the file, or -1: a binary
// search, since the ids ascend — Append allocates them in order and
// OpenHeapFile refuses a list that does not ascend.
func (h *HeapFile) PageIndex(id PageID) int {
	if i, found := slices.BinarySearch(h.pages, id); found {
		return i
	}
	return -1
}
