package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
)

// corruptPage returns a zeroed page image of size bytes whose header claims
// slots records, with slot s's directory entry set to (off, length) for each
// entry of dir.
func corruptPage(size, slots int, dir map[int][2]int) []byte {
	page := make([]byte, size)
	binary.LittleEndian.PutUint16(page, uint16(slots))
	for s, e := range dir {
		d := size - (s+1)*slotEntrySize
		binary.LittleEndian.PutUint16(page[d:], uint16(e[0]))
		binary.LittleEndian.PutUint16(page[d+2:], uint16(e[1]))
	}
	return page
}

// TestRecordInPageRefusesCorruptPages: a page read off a file may claim more
// directory than it holds or records past its end. Every such slot is refused
// with ErrBadRID — by RecordInPage, by SlotRecord, and by a scan, which stops
// at the first — never with a panic.
func TestRecordInPageRefusesCorruptPages(t *testing.T) {
	for _, c := range []struct {
		name  string
		page  []byte
		slot  uint16
		valid int // the slots before the bad one that do hold a record
	}{
		// 4 096 bytes hold a header and 1 023 directory entries: slot 1 023's
		// entry would overlap the header, slot 1 024's start before the page.
		{"directory into the header", corruptPage(4096, 2000, nil), 1023, 1023},
		{"directory before the page", corruptPage(4096, 2000, nil), 1024, 1023},
		{"directory far before the page", corruptPage(4096, 2000, nil), 1999, 1023},
		{"last slot of 0xFFFF", corruptPage(4096, 0xFFFF, nil), 0xFFFE, 1023},
		{"slot 0xFFFF", corruptPage(4096, 0xFFFF, nil), 0xFFFF, 1023},
		{"record past the page", corruptPage(4096, 1, map[int][2]int{0: {4000, 100}}), 0, 0},
		{"offset+length past 16 bits", corruptPage(4096, 1, map[int][2]int{0: {0xFFFF, 0xFFFF}}), 0, 0},
		{"slot past the count", corruptPage(4096, 1, map[int][2]int{0: {4, 8}}), 1, 1},
		{"empty page", nil, 0, 0},
		{"page shorter than its header", []byte{1, 0, 4}, 0, 0},
		{"page of a header alone", []byte{1, 0, 4, 0}, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := RecordInPage(c.page, c.slot); !errors.Is(err, ErrBadRID) {
				t.Fatalf("RecordInPage: %v, want ErrBadRID", err)
			}
			if _, ok := SlotRecord(c.page, int(c.slot)); ok {
				t.Fatal("SlotRecord took the slot")
			}
			if err := PatchRecordInPage(c.page, c.slot, nil); !errors.Is(err, ErrBadRID) {
				t.Fatalf("PatchRecordInPage: %v, want ErrBadRID", err)
			}
			if len(c.page) == 0 || int(c.slot) >= int(binary.LittleEndian.Uint16(c.page)) {
				return // not a slot a scan of the page walks to
			}
			records, err := scanPage(t, c.page)
			if !errors.Is(err, ErrBadRID) || len(records) != c.valid {
				t.Fatalf("scan: %d records then %v, want %d then ErrBadRID", len(records), err, c.valid)
			}
		})
	}
	// A 64 KiB page's offset and length can sum to exactly its size, which
	// 16-bit arithmetic would wrap to 0.
	page := corruptPage(1<<16, 1, map[int][2]int{0: {1, 0xFFFF}})
	if rec, err := RecordInPage(page, 0); err != nil || len(rec) != 0xFFFF {
		t.Fatalf("a record ending at a 64 KiB page's end: %d bytes, %v", len(rec), err)
	}
}

// scanPage stores page as the one page of a heap file and scans it with
// ScanPagesCtx, returning the records it yielded and the scan's error.
func scanPage(t testing.TB, page []byte) ([][]byte, error) {
	t.Helper()
	p := NewPager(NewMemDisk(len(page)), DefaultDiskModel, 0)
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	// Built by hand: OpenHeapFile refuses a page too small for a slot.
	h := &HeapFile{pager: p, pages: []PageID{id}, starts: []uint32{0}, count: 1, readOnly: true}
	err = h.ScanPagesCtx(p, 0, 0, func(_ RID, rec []byte) bool {
		records = append(records, append([]byte(nil), rec...))
		return true
	})
	return records, err
}

// heapPageSeeds returns real heap pages of encoded cells — quads and
// triangles whose values include NaN, ±Inf and ±0 — and corrupt ones.
func heapPageSeeds(t testing.TB) [][]byte {
	p := NewPager(NewMemDisk(512), DefaultDiskModel, 0)
	h := NewHeapFile(p)
	values := [][]float64{
		{1, 2, 3, 4}, {math.NaN(), 2, 3, math.NaN()}, {math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0, math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0, 0, 5}, {-3, math.Inf(1), math.NaN()}, {7, 7, 7, 7},
		{math.NaN(), 9, 8, 7}, {-5, math.NaN(), -6},
	}
	for i, w := range values {
		c := field.Cell{ID: field.CellID(i), Values: w}
		for range w {
			c.Vertices = append(c.Vertices, geom.Pt(float64(i), 1))
		}
		if _, err := h.Append(field.AppendCell(nil, &c)); err != nil {
			t.Fatal(err)
		}
	}
	// A record that is no cell: a vertex count of 5 at a quad's length.
	bad := field.AppendCell(nil, &field.Cell{Vertices: make([]geom.Point, 4), Values: make([]float64, 4)})
	bad[4] = 5
	if _, err := h.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, id := range h.Pages() {
		page := make([]byte, p.PageSize())
		if err := p.ReadRun(id, id, func(_ PageID, img []byte) bool { copy(page, img); return true }); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, page)
	}
	// Small pages keep the fuzzer's minimization of what it finds quick.
	return append(seeds,
		corruptPage(256, 2000, nil), corruptPage(256, 0xFFFF, nil),
		corruptPage(256, 1, map[int][2]int{0: {0xFFFF, 0xFFFF}}), []byte{1, 0, 4}, nil)
}

// FuzzHeapPage: a heap page is bytes read off a file, so its slot count, its
// directory and its records may all lie. On any page image, the walk the
// refinement's record kernel makes — PageSlots, then SlotRecord slot by slot —
// never panics and agrees with RecordInPage on every slot: the same bytes
// where it takes the slot, ErrBadRID where it refuses it; and ScanPagesCtx
// over the image yields exactly the records of that walk, then RecordInPage's
// error. For every record the walk yields, and for the input read as one
// record itself, field.RecordIntersects decides exactly what
// CellIntervalFromRecord followed by Intersects decides — NaN, ±Inf, ±0,
// vertex counts other than 3 and 4 and wrong lengths included — and refuses
// exactly the records CellIntervalFromRecord refuses.
func FuzzHeapPage(f *testing.F) {
	for _, page := range heapPageSeeds(f) {
		f.Add(page, 2.0, 3.5)
		f.Add(page, math.Inf(-1), math.Inf(1))
		f.Add(page, 3.5, 2.0) // an empty interval
		f.Add(page, math.NaN(), 7.0)
	}
	f.Add([]byte{}, math.NaN(), 1.0)
	f.Add([]byte{}, 4.0, 1.0)
	f.Fuzz(func(t *testing.T, page []byte, qlo, qhi float64) {
		q := geom.Interval{Lo: qlo, Hi: qhi}
		verdict := func(rec []byte) {
			hit, ok := field.RecordIntersects(rec, q)
			iv, err := field.CellIntervalFromRecord(rec)
			if ok != (err == nil) || hit && !ok || ok && hit != iv.Intersects(q) {
				t.Fatalf("record test (%v, %v), CellIntervalFromRecord %v (%v) on %v", hit, ok, iv, err, q)
			}
		}
		verdict(page)
		n, err := PageSlots(page)
		if err != nil {
			if !errors.Is(err, ErrBadRID) {
				t.Fatalf("PageSlots: %v", err)
			}
			if _, err := RecordInPage(page, 0); !errors.Is(err, ErrBadRID) {
				t.Fatalf("RecordInPage on a headless page: %v", err)
			}
			return
		}
		var walked [][]byte
		var walkErr error
		for s := 0; s <= n && s <= 0xFFFF; s++ {
			rec, ok := SlotRecord(page, s)
			want, err := RecordInPage(page, uint16(s))
			if ok != (err == nil) || ok && !bytes.Equal(rec, want) {
				t.Fatalf("slot %d of %d: SlotRecord %v, RecordInPage %v", s, n, ok, err)
			}
			if !ok {
				if !errors.Is(err, ErrBadRID) {
					t.Fatalf("slot %d of %d: %v", s, n, err)
				}
				if s < n {
					walkErr = err
				}
				break
			}
			if s == n {
				t.Fatalf("slot %d past the page's %d taken", s, n)
			}
			walked = append(walked, rec)
			verdict(rec)
		}
		if len(page) < 2*pageHeaderSize {
			return // no page size
		}
		scanned, err := scanPage(t, page)
		if (err == nil) != (walkErr == nil) || err != nil && err.Error() != walkErr.Error() || len(scanned) != len(walked) {
			t.Fatalf("scan: %d records then %v, walk: %d then %v", len(scanned), err, len(walked), walkErr)
		}
		for i := range scanned {
			if !bytes.Equal(scanned[i], walked[i]) {
				t.Fatalf("record %d: scan and walk differ", i)
			}
		}
	})
}
