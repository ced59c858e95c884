package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Interval sidecar: a packed columnar segment holding one (lo, hi) float64
// pair per heap-file record, in heap-file order. The filter step of a value
// query needs only these two numbers per cell, and a sidecar page holds
// hundreds of them versus a handful of full cell records per heap page — so
// scanning the sidecar instead of cell pages cuts the filter's page I/O by
// more than an order of magnitude (the Lawson et al. precomputed-metadata
// trick, applied to the paper's §2.2.2 filter step).
//
// Two page codecs exist behind the sidecarPageCodec interface:
//
//   - raw (FSC1), the legacy/fallback layout: fixed-width float64 columns,
//     a fixed 255 entries per 4 KiB page, purely arithmetic addressing.
//   - packed (FSC2): each column is delta-encoded on the float64 bit
//     patterns (or double-delta, chosen per page per column — monotone ramps
//     have near-constant deltas and compress to almost nothing under the
//     second difference) and the zigzag residuals are bit-packed into two
//     per-page width classes plus an escape. Pages hold a variable number of
//     entries, addressed through a first-position directory persisted in the
//     catalog. Decoding reproduces the exact input bit patterns — the filter
//     stays bit-identical to testing CellIntervalFromRecord per record.
//
// Raw page layout (little endian):
//
//	[0:4)   magic "FSC1"
//	[4:8)   count u32 — intervals stored in this page
//	[8:16)  first u64 — global position of the page's first interval
//	[16:16+8·perPage)          lo column, count used
//	[16+8·perPage:16+16·perPage) hi column, count used
//
// Packed page layout (little endian):
//
//	[0:4)   magic "FSC2"
//	[4:8)   count u32
//	[8:16)  first u64
//	[16:18) loLen u16 — byte length of the lo column block
//	[18:...) lo column block, hi column block
//
// Column block: predictor byte (0 delta, 1 double-delta), w1 byte, w2 byte,
// first value raw u64, then 2-bit tags for entries 1..count-1 (00 zero
// residual, 01 w1-bit, 10 w2-bit, 11 raw 64-bit), then the bit-packed
// zigzag residuals, LSB-first.
//
// In both codecs the hi column decodes with fixed strides relative to the
// page header, and pages are allocated back-to-back, so a sidecar scan is
// one sequential run charged at sequential cost after its first page.
const (
	sidecarHeaderSize = 16
	sidecarEntrySize  = 16

	packedHeaderSize = 18
	packedColHeader  = 11 // predictor + w1 + w2 + first value

	// packedSlack is the build-time reserve per packed page: updates
	// re-encode a page in place, and a shifted value can need wider
	// residuals than the original column, so pages are built short of full
	// to absorb the growth. A patch that still does not fit fails with
	// ErrSidecarPageFull.
	packedSlack = 256

	// packedMaxFactor caps packed entries per page at this multiple of the
	// raw capacity, bounding decode scratch.
	packedMaxFactor = 4
)

// Sidecar codec names, as persisted in catalogs and accepted by the facade.
const (
	SidecarCodecRaw    = "raw"
	SidecarCodecPacked = "packed"
)

// ErrSidecarPageFull is returned by PatchEntry when a packed page cannot
// re-encode the patched column within the page size — the update batch fails
// cleanly and no state changes.
var ErrSidecarPageFull = errors.New("storage: packed sidecar page full")

var (
	sidecarMagic       = [4]byte{'F', 'S', 'C', '1'}
	sidecarPackedMagic = [4]byte{'F', 'S', 'C', '2'}
)

// ValidSidecarCodec reports whether name names a known sidecar codec.
func ValidSidecarCodec(name string) bool {
	return name == SidecarCodecRaw || name == SidecarCodecPacked
}

// IntervalSidecar addresses a built (or reopened) sidecar segment.
type IntervalSidecar struct {
	first   PageID
	pages   int
	count   int
	perPage int // raw capacity of one page; scratch bound for packed

	codec sidecarPageCodec
	// firstPos is the per-page first-position directory of a packed
	// segment (firstPos[i] is the global position of page i's first entry,
	// firstPos[0] == 0); nil for raw segments, whose addressing is
	// arithmetic.
	firstPos []uint32
}

// SidecarEntriesPerPage returns how many intervals fit in one raw sidecar
// page.
func SidecarEntriesPerPage(pageSize int) int {
	return (pageSize - sidecarHeaderSize) / sidecarEntrySize
}

// SidecarMaxEntriesPerPage returns the per-page entry cap of the packed
// codec.
func SidecarMaxEntriesPerPage(pageSize int) int {
	return packedMaxFactor * SidecarEntriesPerPage(pageSize)
}

// BuildIntervalSidecarWith writes interval columns in codec's layout to
// freshly allocated, physically contiguous pages on pager. lo and hi must be
// the per-record bounds in heap-file order. The writes go through the pager's
// write path, so — like heap-file construction — they are counted but not
// charged to the simulated read clock.
func BuildIntervalSidecarWith(pager *Pager, lo, hi []float64, codec string) (*IntervalSidecar, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("storage: sidecar columns differ: %d vs %d", len(lo), len(hi))
	}
	ps := pager.PageSize()
	perPage := SidecarEntriesPerPage(ps)
	if perPage < 1 {
		return nil, fmt.Errorf("storage: page size %d too small for sidecar", ps)
	}
	s := &IntervalSidecar{perPage: perPage, count: len(lo)}
	var limit int
	switch codec {
	case SidecarCodecRaw:
		s.codec = rawCodec{perPage: perPage}
		limit = ps
	case SidecarCodecPacked:
		s.codec = packedCodec{maxEntries: SidecarMaxEntriesPerPage(ps)}
		limit = ps - packedSlack
		s.firstPos = []uint32{}
	default:
		return nil, fmt.Errorf("storage: unknown sidecar codec %q", codec)
	}
	buf := make([]byte, ps)
	for base := 0; base < len(lo); {
		n := s.codec.fit(lo, hi, base, limit)
		if n < 1 {
			return nil, fmt.Errorf("storage: sidecar entry %d does not fit a page", base)
		}
		for i := range buf {
			buf[i] = 0
		}
		s.codec.encodePage(buf, base, lo[base:base+n], hi[base:base+n])
		id, err := pager.Alloc()
		if err != nil {
			return nil, err
		}
		if s.pages == 0 {
			s.first = id
		} else if id != s.first+PageID(s.pages) {
			return nil, fmt.Errorf("storage: sidecar page %d not contiguous after %d", id, s.first)
		}
		if err := pager.WritePage(id, buf); err != nil {
			return nil, err
		}
		if s.firstPos != nil {
			s.firstPos = append(s.firstPos, uint32(base))
		}
		s.pages++
		base += n
	}
	return s, nil
}

// OpenIntervalSidecar reopens a raw sidecar segment from its catalog
// geometry.
func OpenIntervalSidecar(pager *Pager, first PageID, pages, count int) (*IntervalSidecar, error) {
	perPage := SidecarEntriesPerPage(pager.PageSize())
	if perPage < 1 || pages < 0 || count < 0 ||
		count > pages*perPage || (pages > 0 && count <= (pages-1)*perPage) {
		return nil, fmt.Errorf("storage: sidecar geometry %d pages / %d entries invalid", pages, count)
	}
	return &IntervalSidecar{
		first: first, pages: pages, count: count, perPage: perPage,
		codec: rawCodec{perPage: perPage},
	}, nil
}

// OpenIntervalSidecarPacked reopens a packed sidecar segment from its
// catalog geometry and first-position directory.
func OpenIntervalSidecarPacked(pager *Pager, first PageID, count int, firstPos []uint32) (*IntervalSidecar, error) {
	ps := pager.PageSize()
	perPage := SidecarEntriesPerPage(ps)
	maxPer := SidecarMaxEntriesPerPage(ps)
	if perPage < 1 || count < 0 || (count > 0) != (len(firstPos) > 0) {
		return nil, fmt.Errorf("storage: packed sidecar geometry %d pages / %d entries invalid", len(firstPos), count)
	}
	for i, fp := range firstPos {
		next := count
		if i+1 < len(firstPos) {
			next = int(firstPos[i+1])
		}
		per := next - int(fp)
		if (i == 0 && fp != 0) || per < 1 || per > maxPer {
			return nil, fmt.Errorf("storage: packed sidecar directory corrupt at page %d", i)
		}
	}
	own := make([]uint32, len(firstPos))
	copy(own, firstPos)
	return &IntervalSidecar{
		first: first, pages: len(firstPos), count: count, perPage: perPage,
		codec: packedCodec{maxEntries: maxPer}, firstPos: own,
	}, nil
}

// FirstPage returns the segment's first page id.
func (s *IntervalSidecar) FirstPage() PageID { return s.first }

// NumPages returns the number of pages the segment occupies.
func (s *IntervalSidecar) NumPages() int { return s.pages }

// Count returns the number of intervals stored.
func (s *IntervalSidecar) Count() int { return s.count }

// Codec returns the segment's codec name.
func (s *IntervalSidecar) Codec() string { return s.codec.name() }

// PageFirstPositions returns the packed segment's first-position directory
// (nil for raw segments). The slice must not be modified; catalogs persist
// it so reopened segments address pages without reading them.
func (s *IntervalSidecar) PageFirstPositions() []uint32 { return s.firstPos }

// pageIndexOf returns the index of the page holding global position pos.
func (s *IntervalSidecar) pageIndexOf(pos int) int {
	if s.firstPos == nil {
		return pos / s.perPage
	}
	return pageOfPosition(s.firstPos, pos)
}

// pageBaseOf returns the global position of page pi's first entry.
func (s *IntervalSidecar) pageBaseOf(pi int) int {
	if s.firstPos == nil {
		return pi * s.perPage
	}
	return int(s.firstPos[pi])
}

// ColumnScratch is the decode scratch of a sidecar scan: the two columns of
// one page. The zero value is ready; a scan grows it to the segment's page
// capacity once, and a caller that keeps it across scans pays for no other.
type ColumnScratch struct{ lo, hi []float64 }

// ScanRange decodes the intervals of positions [start, end) through r,
// calling fn once per touched page with the global position of the first
// decoded entry and the packed lo/hi columns of the in-range entries (valid
// only during the call). Returning false stops the scan. Page reads are
// charged to r like any other query I/O: the whole range is fetched through
// one ReadRun, with per-page charges identical to a page-at-a-time loop.
func (s *IntervalSidecar) ScanRange(r PageReader, start, end int, fn func(base int, lo, hi []float64) bool) error {
	return s.ScanRangeScratch(r, start, end, new(ColumnScratch), fn)
}

// ScanRangeScratch is ScanRange decoding into the caller's scratch. One
// pooled page visitor serves the scan, so with a warm scratch it allocates
// nothing.
func (s *IntervalSidecar) ScanRangeScratch(r PageReader, start, end int, cs *ColumnScratch, fn func(base int, lo, hi []float64) bool) error {
	if start < 0 {
		start = 0
	}
	if end > s.count {
		end = s.count
	}
	if start >= end {
		return nil
	}
	firstPage := s.pageIndexOf(start)
	lastPage := s.pageIndexOf(end - 1)
	scratch := s.perPage
	if s.firstPos != nil {
		scratch = s.codec.(packedCodec).maxEntries
	}
	if len(cs.lo) < scratch {
		cs.lo, cs.hi = make([]float64, scratch), make([]float64, scratch)
	}
	rs := rangeScans.Get().(*rangeScan)
	rs.s, rs.start, rs.end, rs.cs, rs.fn, rs.pi = s, start, end, cs, fn, firstPage
	err := r.ReadRun(s.first+PageID(firstPage), s.first+PageID(lastPage), rs.visit)
	if err == nil {
		err = rs.err
	}
	rs.s, rs.cs, rs.fn, rs.err = nil, nil, nil, nil
	rangeScans.Put(rs)
	return err
}

// rangeScan is the page visitor of one ScanRangeScratch call: the scan's
// bounds, scratch and callback, the index pi of the next page and the error
// that stopped the scan. It is pooled with visit, its page method, bound
// once.
type rangeScan struct {
	s          *IntervalSidecar
	start, end int
	cs         *ColumnScratch
	fn         func(base int, lo, hi []float64) bool
	pi         int
	err        error
	visit      func(PageID, []byte) bool
}

var rangeScans = sync.Pool{New: func() any {
	rs := new(rangeScan)
	rs.visit = rs.page
	return rs
}}

func (rs *rangeScan) page(_ PageID, page []byte) bool {
	lo, hi, base, err := rs.s.decodePage(rs.pi, page, rs.start, rs.end, rs.cs.lo, rs.cs.hi)
	rs.pi++
	if err != nil {
		rs.err = err
		return false
	}
	return rs.fn(base, lo, hi)
}

// PageFor returns the page id and the within-page entry index of global
// position pos — where a value update must patch the interval columns.
func (s *IntervalSidecar) PageFor(pos int) (PageID, int, error) {
	if pos < 0 || pos >= s.count {
		return InvalidPage, 0, fmt.Errorf("storage: sidecar position %d of %d", pos, s.count)
	}
	pi := s.pageIndexOf(pos)
	return s.first + PageID(pi), pos - s.pageBaseOf(pi), nil
}

// PatchEntry overwrites entry idx of a sidecar page image with (lo, hi),
// validating the page header first so a torn or mismatched image fails the
// update instead of silently corrupting the columns. The image is modified
// in place; callers stage it as a copy-on-write overlay. On a packed page
// the columns are decoded, patched, and re-encoded in place; if the patched
// column no longer fits the page, PatchEntry returns ErrSidecarPageFull and
// leaves the image unchanged.
func (s *IntervalSidecar) PatchEntry(page []byte, pi PageID, idx int, lo, hi float64) error {
	pageIdx := int(pi - s.first)
	if pageIdx < 0 || pageIdx >= s.pages {
		return fmt.Errorf("storage: sidecar page %d outside segment", pi)
	}
	return s.codec.patchEntry(page, s.pageBaseOf(pageIdx), idx, lo, hi)
}

// decodePage validates one sidecar page and decodes its entries overlapping
// [start, end) into the column scratch, returning the trimmed columns and
// the global position of their first entry.
func (s *IntervalSidecar) decodePage(pi int, page []byte, start, end int, loCol, hiCol []float64) ([]float64, []float64, int, error) {
	n, pageBase, err := s.codec.decodePage(page, loCol, hiCol)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: sidecar page %d: %w", pi, err)
	}
	if pageBase != s.pageBaseOf(pi) {
		return nil, nil, 0, fmt.Errorf("storage: sidecar page %d: corrupt header", pi)
	}
	from, to := 0, n
	if start > pageBase {
		from = start - pageBase
	}
	if end < pageBase+n {
		to = end - pageBase
	}
	if from >= to {
		return nil, nil, 0, fmt.Errorf("storage: sidecar page %d: empty overlap", pi)
	}
	return loCol[from:to], hiCol[from:to], pageBase + from, nil
}

// sidecarPageCodec is the per-page encoding strategy behind an
// IntervalSidecar. Implementations are stateless: geometry — which page
// holds which positions — lives in IntervalSidecar, arithmetic for the
// fixed-capacity raw codec and a first-position directory for the packed
// one.
type sidecarPageCodec interface {
	// name is the codec identifier persisted in catalogs.
	name() string
	// fit returns the largest entry count n ≥ 1 such that entries
	// [base, base+n) of the columns encode into at most limit bytes, or 0
	// when even one entry does not fit.
	fit(lo, hi []float64, base, limit int) int
	// encodePage writes the given column slices into buf, a zeroed page,
	// with base as the page's first global position.
	encodePage(buf []byte, base int, lo, hi []float64)
	// decodePage decodes a page image into the column scratch, returning
	// the entry count and the page's first global position.
	decodePage(page []byte, loCol, hiCol []float64) (n, base int, err error)
	// patchEntry overwrites entry idx of a page image whose first global
	// position is pageBase.
	patchEntry(page []byte, pageBase, idx int, lo, hi float64) error
}

// rawCodec is the legacy FSC1 layout: fixed-width float64 columns.
type rawCodec struct{ perPage int }

func (rawCodec) name() string { return SidecarCodecRaw }

func (c rawCodec) fit(lo, _ []float64, base, _ int) int {
	n := len(lo) - base
	if n > c.perPage {
		n = c.perPage
	}
	return n
}

func (c rawCodec) encodePage(buf []byte, base int, lo, hi []float64) {
	copy(buf[0:4], sidecarMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(lo)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(base))
	loOff := sidecarHeaderSize
	hiOff := sidecarHeaderSize + 8*c.perPage
	for i := range lo {
		binary.LittleEndian.PutUint64(buf[loOff+8*i:], math.Float64bits(lo[i]))
		binary.LittleEndian.PutUint64(buf[hiOff+8*i:], math.Float64bits(hi[i]))
	}
}

func (c rawCodec) decodePage(page []byte, loCol, hiCol []float64) (int, int, error) {
	if [4]byte(page[0:4]) != sidecarMagic {
		return 0, 0, errors.New("bad magic")
	}
	n := int(binary.LittleEndian.Uint32(page[4:8]))
	base := int(binary.LittleEndian.Uint64(page[8:16]))
	if n > c.perPage || n > len(loCol) {
		return 0, 0, errors.New("corrupt header")
	}
	loOff := sidecarHeaderSize
	hiOff := sidecarHeaderSize + 8*c.perPage
	for i := 0; i < n; i++ {
		loCol[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[loOff+8*i:]))
		hiCol[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[hiOff+8*i:]))
	}
	return n, base, nil
}

func (c rawCodec) patchEntry(page []byte, pageBase, idx int, lo, hi float64) error {
	if [4]byte(page[0:4]) != sidecarMagic {
		return errors.New("storage: sidecar page: bad magic")
	}
	n := int(binary.LittleEndian.Uint32(page[4:8]))
	if int(binary.LittleEndian.Uint64(page[8:16])) != pageBase || idx < 0 || idx >= n {
		return fmt.Errorf("storage: sidecar entry %d of %d invalid", idx, n)
	}
	binary.LittleEndian.PutUint64(page[sidecarHeaderSize+8*idx:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(page[sidecarHeaderSize+8*c.perPage+8*idx:], math.Float64bits(hi))
	return nil
}

// packedCodec is the FSC2 layout: per-column delta or double-delta
// prediction on the float64 bit patterns, zigzag residuals bit-packed into
// two per-page width classes plus a 64-bit escape.
type packedCodec struct{ maxEntries int }

func (packedCodec) name() string { return SidecarCodecPacked }

func (c packedCodec) fit(lo, hi []float64, base, limit int) int {
	max := len(lo) - base
	if max > c.maxEntries {
		max = c.maxEntries
	}
	if max < 1 || c.size(lo, hi, base, 1) > limit {
		return 0
	}
	// Largest n whose encoded size stays within limit; size is monotone in
	// n for a fixed base (more entries never shrink a column block).
	return sort.Search(max, func(k int) bool {
		return c.size(lo, hi, base, k+1) > limit
	})
}

// size returns the encoded byte size of entries [base, base+n).
func (c packedCodec) size(lo, hi []float64, base, n int) int {
	return packedHeaderSize +
		planColumn(lo[base:base+n]).size +
		planColumn(hi[base:base+n]).size
}

func (c packedCodec) encodePage(buf []byte, base int, lo, hi []float64) {
	copy(buf[0:4], sidecarPackedMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(lo)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(base))
	loLen := encodeColumn(buf[packedHeaderSize:], lo)
	binary.LittleEndian.PutUint16(buf[16:18], uint16(loLen))
	encodeColumn(buf[packedHeaderSize+loLen:], hi)
}

func (c packedCodec) decodePage(page []byte, loCol, hiCol []float64) (int, int, error) {
	if [4]byte(page[0:4]) != sidecarPackedMagic {
		return 0, 0, errors.New("bad magic")
	}
	n := int(binary.LittleEndian.Uint32(page[4:8]))
	base := int(binary.LittleEndian.Uint64(page[8:16]))
	loLen := int(binary.LittleEndian.Uint16(page[16:18]))
	if n < 1 || n > c.maxEntries || n > len(loCol) || packedHeaderSize+loLen > len(page) {
		return 0, 0, errors.New("corrupt header")
	}
	if err := decodeColumn(page[packedHeaderSize:packedHeaderSize+loLen], n, loCol); err != nil {
		return 0, 0, err
	}
	if err := decodeColumn(page[packedHeaderSize+loLen:], n, hiCol); err != nil {
		return 0, 0, err
	}
	return n, base, nil
}

func (c packedCodec) patchEntry(page []byte, pageBase, idx int, lo, hi float64) error {
	loCol := make([]float64, c.maxEntries)
	hiCol := make([]float64, c.maxEntries)
	n, base, err := c.decodePage(page, loCol, hiCol)
	if err != nil {
		return fmt.Errorf("storage: packed sidecar page: %v", err)
	}
	if base != pageBase || idx < 0 || idx >= n {
		return fmt.Errorf("storage: packed sidecar entry %d of %d invalid", idx, n)
	}
	loCol[idx], hiCol[idx] = lo, hi
	need := c.size(loCol, hiCol, 0, n) // columns now hold exactly the page
	if need > len(page) {
		return fmt.Errorf("%w: %d entries need %d bytes after patch", ErrSidecarPageFull, n, need)
	}
	for i := range page {
		page[i] = 0
	}
	c.encodePage(page, base, loCol[:n], hiCol[:n])
	return nil
}

// Column encoding machinery.

const (
	predictorDelta       = 0
	predictorDoubleDelta = 1
)

// colPlan is the chosen encoding of one column block: the predictor, the two
// width classes, and the resulting sizes.
type colPlan struct {
	predictor byte
	w1, w2    byte
	size      int // total column block bytes
}

// planColumn picks the cheaper of the delta and double-delta predictors for
// vals, each with its optimal width classes.
func planColumn(vals []float64) colPlan {
	best := planPredictor(vals, predictorDelta)
	if dd := planPredictor(vals, predictorDoubleDelta); dd.size < best.size {
		return dd
	}
	return best
}

// planPredictor computes the optimal width classes for one predictor via a
// bit-length histogram: with prefix counts, every (w1, w2) pair is O(1), and
// only *occupied* bit lengths need considering — lowering a width to the
// largest occupied length at or below it never adds a bit, so the restricted
// sweep finds the same global minimum as the exhaustive 63×63 one at a
// fraction of the cost (the short per-ring columns of the binary wire format
// hit this planner thousands of times per response).
func planPredictor(vals []float64, predictor byte) colPlan {
	n := len(vals)
	plan := colPlan{predictor: predictor, w1: 1, w2: 1, size: packedColHeader}
	if n <= 1 {
		return plan
	}
	// cum[w] = number of residuals with 1 <= zigzag bit length <= w;
	// zero residuals cost nothing (tag 00 carries them).
	var cum [65]int
	eachResidual(vals, predictor, func(zz uint64) {
		cum[bits.Len64(zz)]++
	})
	cum[0] = 0
	var lens [63]byte // occupied bit lengths in the 1..63 payload range
	nl := 0
	for w := 1; w <= 63; w++ {
		if cum[w] > 0 {
			lens[nl] = byte(w)
			nl++
		}
		cum[w] += cum[w-1]
	}
	cum[64] += cum[63]
	bestBits := 64 * cum[64] // everything in the escape class (w1 = w2 = 1)
	for i := 0; i < nl; i++ {
		w1 := int(lens[i])
		for j := i; j < nl; j++ {
			w2 := int(lens[j])
			b := w1*cum[w1] + w2*(cum[w2]-cum[w1]) + 64*(cum[64]-cum[w2])
			if b < bestBits {
				bestBits = b
				plan.w1, plan.w2 = byte(w1), byte(w2)
			}
		}
	}
	tagBytes := (2*(n-1) + 7) / 8
	plan.size = packedColHeader + tagBytes + (bestBits+7)/8
	return plan
}

// eachResidual visits the zigzag residual of every entry after the first
// under the given predictor, operating on raw float64 bit patterns so the
// round trip is exact for every value, NaN payloads and signed zeros
// included.
func eachResidual(vals []float64, predictor byte, fn func(zz uint64)) {
	prev := math.Float64bits(vals[0])
	var prevDelta uint64
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		delta := cur - prev
		r := delta
		if predictor == predictorDoubleDelta {
			r = delta - prevDelta
			prevDelta = delta
		}
		fn(zigzag(int64(r)))
		prev = cur
	}
}

// encodeColumn writes one column block into dst and returns its byte length.
func encodeColumn(dst []byte, vals []float64) int {
	plan := planColumn(vals)
	dst[0] = plan.predictor
	dst[1] = plan.w1
	dst[2] = plan.w2
	binary.LittleEndian.PutUint64(dst[3:11], math.Float64bits(vals[0]))
	n := len(vals)
	if n == 1 {
		return packedColHeader
	}
	tagBytes := (2*(n-1) + 7) / 8
	tags := dst[packedColHeader : packedColHeader+tagBytes]
	payload := dst[packedColHeader+tagBytes:]
	w1, w2 := uint(plan.w1), uint(plan.w2)
	var pos uint
	i := 0
	eachResidual(vals, plan.predictor, func(zz uint64) {
		l := uint(bits.Len64(zz))
		var tag byte
		switch {
		case l == 0:
			tag = 0
		case l <= w1:
			tag = 1
			pos = putBits(payload, pos, zz, w1)
		case l <= w2:
			tag = 2
			pos = putBits(payload, pos, zz, w2)
		default:
			tag = 3
			pos = putBits(payload, pos, zz, 64)
		}
		tags[i/4] |= tag << uint((i%4)*2)
		i++
	})
	return packedColHeader + tagBytes + int(pos+7)/8
}

// decodeColumn decodes a column block of n entries into out[:n]. A tag byte
// at a time — four entries — it reads the four fields independently, their
// offsets the prefix sums of their widths, and then accumulates them, one
// loop per predictor; the block's last entries, whose fields lie within nine
// bytes of its end, go one at a time, and so does every bounds error.
func decodeColumn(src []byte, n int, out []float64) error {
	if n < 1 || n > len(out) {
		return errors.New("column count out of range")
	}
	if len(src) < packedColHeader {
		return errors.New("column block truncated")
	}
	predictor, w1, w2 := src[0], uint(src[1]), uint(src[2])
	if predictor > predictorDoubleDelta || w1 < 1 || w1 > 63 || w2 < w1 || w2 > 63 {
		return errors.New("column header corrupt")
	}
	prev := binary.LittleEndian.Uint64(src[3:11])
	out[0] = math.Float64frombits(prev)
	if n == 1 {
		return nil
	}
	tagBytes := (2*(n-1) + 7) / 8
	if len(src) < packedColHeader+tagBytes {
		return errors.New("column block truncated")
	}
	tags := src[packedColHeader : packedColHeader+tagBytes]
	payload := src[packedColHeader+tagBytes:]
	widths := [4]uint{0, w1, w2, 64}
	out = out[1:n]
	var pos uint
	var prevDelta uint64
	i := 0
	if predictor == predictorDelta {
		for ; i+4 <= len(out); i += 4 {
			t := tags[i>>2]
			wa, wb, wc, wd := widths[t&3], widths[t>>2&3], widths[t>>4&3], widths[t>>6]
			p1 := pos + wa
			p2 := p1 + wb
			p3 := p2 + wc
			if p3>>3+9 > uint(len(payload)) {
				break // the last field may lie within nine bytes of the end
			}
			z0, z1, z2, z3 := getBits(payload, pos, wa), getBits(payload, p1, wb), getBits(payload, p2, wc), getBits(payload, p3, wd)
			pos = p3 + wd
			prev += uint64(unzigzag(z0))
			out[i] = math.Float64frombits(prev)
			prev += uint64(unzigzag(z1))
			out[i+1] = math.Float64frombits(prev)
			prev += uint64(unzigzag(z2))
			out[i+2] = math.Float64frombits(prev)
			prev += uint64(unzigzag(z3))
			out[i+3] = math.Float64frombits(prev)
		}
	} else {
		for ; i+4 <= len(out); i += 4 {
			t := tags[i>>2]
			wa, wb, wc, wd := widths[t&3], widths[t>>2&3], widths[t>>4&3], widths[t>>6]
			p1 := pos + wa
			p2 := p1 + wb
			p3 := p2 + wc
			if p3>>3+9 > uint(len(payload)) {
				break // the last field may lie within nine bytes of the end
			}
			z0, z1, z2, z3 := getBits(payload, pos, wa), getBits(payload, p1, wb), getBits(payload, p2, wc), getBits(payload, p3, wd)
			pos = p3 + wd
			prevDelta += uint64(unzigzag(z0))
			prev += prevDelta
			out[i] = math.Float64frombits(prev)
			prevDelta += uint64(unzigzag(z1))
			prev += prevDelta
			out[i+1] = math.Float64frombits(prev)
			prevDelta += uint64(unzigzag(z2))
			prev += prevDelta
			out[i+2] = math.Float64frombits(prev)
			prevDelta += uint64(unzigzag(z3))
			prev += prevDelta
			out[i+3] = math.Float64frombits(prev)
		}
	}
	// The tail, one entry at a time. The payload length was rounded up to
	// whole bytes; a field that would end past it is a truncated block.
	avail := uint(len(payload)) * 8
	var ddMask uint64 // all ones when deltas accumulate
	if predictor == predictorDoubleDelta {
		ddMask = ^uint64(0)
	}
	for ; i < len(out); i++ {
		w := widths[(tags[i>>2]>>(uint(i&3)*2))&3]
		var zz uint64
		if pos>>3+9 <= uint(len(payload)) {
			// Nine bytes ahead lie inside the block, so the field does too.
			zz, pos = getBits(payload, pos, w), pos+w
		} else if w > 0 {
			if pos+w > avail {
				return errors.New("column payload truncated")
			}
			zz, pos = getBitsBytewise(payload, pos, w)
		}
		delta := uint64(unzigzag(zz)) + prevDelta&ddMask
		prevDelta = delta
		prev += delta
		out[i] = math.Float64frombits(prev)
	}
	return nil
}

// zigzag maps signed residuals to unsigned so small magnitudes of either
// sign get short bit lengths.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// putBits writes the low n bits of v at bit position pos (LSB-first within
// each byte) and returns the new position. buf must be zeroed past pos.
func putBits(buf []byte, pos uint, v uint64, n uint) uint {
	for n > 0 {
		idx := pos >> 3
		off := pos & 7
		take := 8 - off
		if take > n {
			take = n
		}
		buf[idx] |= byte(v << off)
		v >>= take
		pos += take
		n -= take
	}
	return pos
}

// getBits reads the n bits (0 to 64) at bit position pos of a buf that reaches
// at least nine bytes past the field's first: one little-endian 64-bit word
// shifted into place, topped up from the ninth byte with the bits a field
// straddling the word's end has there. No branch: a shift by 64 yields zero,
// and the mask drops whatever lies past the field.
func getBits(buf []byte, pos, n uint) uint64 {
	idx, off := pos>>3, pos&7
	return (binary.LittleEndian.Uint64(buf[idx:])>>off | uint64(buf[idx+8])<<(64-off)) & (1<<n - 1)
}

// getBitsBytewise reads n bits at pos one byte at a time and returns the value
// and the new position: the last fields of a block, where getBits' word would
// overrun it, and the reference getBits is tested against.
func getBitsBytewise(buf []byte, pos, n uint) (uint64, uint) {
	var v uint64
	var got uint
	for got < n {
		idx := pos >> 3
		off := pos & 7
		take := 8 - off
		if take > n-got {
			take = n - got
		}
		v |= (uint64(buf[idx]>>off) & (1<<take - 1)) << got
		pos += take
		got += take
	}
	return v, pos
}
