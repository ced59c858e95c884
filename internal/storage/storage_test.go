package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readPage copies page id out of one single-page ReadRun through r.
func readPage(t *testing.T, r PageReader, id PageID) []byte {
	t.Helper()
	var out []byte
	if err := r.ReadRun(id, id, func(_ PageID, page []byte) bool { out = bytes.Clone(page); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// diskPage reads page id straight off d.
func diskPage(t *testing.T, d Disk, id PageID) []byte {
	t.Helper()
	buf := make([]byte, d.PageSize())
	if err := d.ReadRun(id, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestMemDiskBasics(t *testing.T) {
	d := NewMemDisk(128)
	if d.PageSize() != 128 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
	if d.NumPages() != 0 {
		t.Fatal("fresh disk has pages")
	}
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || d.NumPages() != 1 {
		t.Fatalf("Alloc = %d, NumPages = %d", id, d.NumPages())
	}
	w := make([]byte, 128)
	copy(w, "hello")
	if err := d.WritePage(id, w); err != nil {
		t.Fatal(err)
	}
	if r := diskPage(t, d, id); !bytes.Equal(r, w) {
		t.Fatal("read != write")
	}
	if err := d.ReadRun(0, [][]byte{w, w}); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("run past the end: %v", err)
	}
	if err := d.WritePage(7, w); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
}

func TestMemDiskZeroPageSizeDefaults(t *testing.T) {
	d := NewMemDisk(0)
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", d.PageSize(), DefaultPageSize)
	}
}

func TestFileDiskRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	d, err := OpenFileDisk(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		copy(buf, fmt.Sprintf("page-%d", i))
		if err := d.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify persistence.
	d2, err := OpenFileDisk(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 5 {
		t.Fatalf("NumPages after reopen = %d", d2.NumPages())
	}
	for i, id := range ids {
		buf := diskPage(t, d2, id)
		want := fmt.Sprintf("page-%d", i)
		if string(buf[:len(want)]) != want {
			t.Fatalf("page %d content %q", id, buf[:len(want)])
		}
	}
}

func TestFileDiskRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	d, err := OpenFileDisk(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Reopen with mismatching page size: 256 not divisible by 100.
	if _, err := OpenFileDisk(path, 100); err == nil {
		t.Fatal("expected error for torn file")
	}
}

// TestFileDiskTruncatedUnderOpenDisk: a page the file loses after the disk
// was opened fails the read with io.ErrUnexpectedEOF at that page — never its
// surviving bytes over whatever the frame held before — and the query charges
// none of the run the failed fetch belonged to. The runs cross the cut from
// either side and at every distance, one vector read long and longer, so a
// read that comes back short fails where a page-at-a-time read would.
func TestFileDiskTruncatedUnderOpenDisk(t *testing.T) {
	const ps, pages, cut = 64, 140, 70 // page 70 keeps 10 bytes, 71 on none
	path := filepath.Join(t.TempDir(), "cut.db")
	d, err := OpenFileDisk(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(d, DefaultDiskModel, 4)
	defer p.Close()
	appendStamped(t, d, pages)
	if err := os.Truncate(path, cut*ps+10); err != nil {
		t.Fatal(err)
	}
	diskRun := func(first PageID, n int) {
		t.Helper()
		if err := d.ReadRun(first, runBufs(n, ps)); !errors.Is(err, io.ErrUnexpectedEOF) ||
			!strings.Contains(err.Error(), fmt.Sprintf("read page %d:", max(first, cut))) {
			t.Fatalf("disk run %d+%d over a file cut in page %d: %v", first, n, cut, err)
		}
	}
	for _, run := range [][2]PageID{
		{cut, 2}, {cut + 1, 3}, {cut - 2, 3},
		{cut, 1}, {cut + 1, 5}, {cut - 1, 2}, {cut - 3, 8},
		{cut - 63, 64}, {cut, 64}, {cut - 20, 40}, {cut - 30, 64},
	} {
		first, n := run[0], int(run[1])
		diskRun(first, n)
		qc := p.BeginQuery()
		err := qc.ReadRun(first, first+PageID(n-1), func(PageID, []byte) bool { return true })
		if st := qc.Stats(); !errors.Is(err, io.ErrUnexpectedEOF) || st.Reads != 0 {
			t.Fatalf("run %d+%d over a truncated file: %v, charged %v", first, n, err, st)
		}
	}
	// Longer than one vector read: the first reads whole, the next comes
	// back short.
	diskRun(0, pages)
	diskRun(cut-64, 100)
	// The pages before the cut still read, in runs and alone.
	bufs := runBufs(cut, ps)
	if err := d.ReadRun(0, bufs); err != nil {
		t.Fatalf("the %d pages before the cut: %v", cut, err)
	}
	for i, b := range bufs {
		if err := checkStamp(b, PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPagerSequentialVsRandomAccounting(t *testing.T) {
	d := NewMemDisk(64)
	for i := 0; i < 10; i++ {
		d.Alloc()
	}
	model := DiskModel{RandomRead: 10 * time.Millisecond, SequentialRead: 1 * time.Millisecond}
	p := NewPager(d, model, 0)
	qc := p.BeginQuery()
	// 0,1,2,3 page by page -> 1 random + 3 sequential.
	for i := PageID(0); i < 4; i++ {
		readPage(t, qc, i)
	}
	// Jump to 9 -> random.
	readPage(t, qc, 9)
	st := qc.Stats()
	if st.Reads != 5 || st.SeqReads != 3 || st.RandReads != 2 {
		t.Fatalf("stats = %+v", st)
	}
	want := 2*model.RandomRead + 3*model.SequentialRead
	if st.SimElapsed != want {
		t.Fatalf("SimElapsed = %v, want %v", st.SimElapsed, want)
	}
	if p.Stats() != st {
		t.Fatalf("pager totals %v != published %v", p.Stats(), st)
	}
	// The pager's own ReadRun is a one-shot query: its first page is random
	// whatever ran before, and it publishes what it charged.
	readPage(t, p, 4)
	if d := p.Stats().Sub(st); d.Reads != 1 || d.RandReads != 1 {
		t.Fatalf("one-shot read after page 9 charged %+v", d)
	}
}

// poolHits sums the pool's hit and miss counters over its shards.
func poolHits(p *Pager) (hits, misses int64) {
	for _, s := range p.PoolShardStats() {
		hits += s.Hits
		misses += s.Misses
	}
	return hits, misses
}

func TestPagerBufferPool(t *testing.T) {
	d := NewMemDisk(64)
	for i := 0; i < 4; i++ {
		d.Alloc()
	}
	p := NewPager(d, DefaultDiskModel, 2)
	for _, id := range []PageID{
		0, // miss
		0, // hit
		1, // miss
		0, // hit
		2, // miss, evicts LRU (page 1)
		1, // miss again
	} {
		readPage(t, p, id)
	}
	if hits, misses := poolHits(p); hits != 2 || misses != 4 {
		t.Fatalf("pool hits %d, misses %d", hits, misses)
	}
	// Every one-shot query is charged as if it ran alone against a cold pool.
	if st := p.Stats(); st.Reads != 6 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Writes update cached copies.
	w := make([]byte, 64)
	copy(w, "fresh")
	if err := p.WritePage(1, w); err != nil {
		t.Fatal(err)
	}
	if buf := readPage(t, p, 1); string(buf[:5]) != "fresh" {
		t.Fatal("cached page not updated by write")
	}
	p.DropCache()
	readPage(t, p, 1)
	if hits, _ := poolHits(p); hits != 3 {
		t.Fatalf("hits after DropCache = %d, want 3 (read must miss)", hits)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, SeqReads: 3, RandReads: 2, Writes: 1, CacheHits: 4, SimElapsed: time.Second}
	b := Stats{Reads: 2, SeqReads: 1, RandReads: 1, Writes: 1, CacheHits: 1, SimElapsed: time.Millisecond}
	d := a.Sub(b)
	if d.Reads != 3 || d.SeqReads != 2 || d.RandReads != 1 || d.Writes != 0 || d.CacheHits != 3 {
		t.Fatalf("Sub = %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Fatalf("Add(Sub) != original: %+v", s)
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHeapFileAppendGet(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	var rids []RID
	var recs [][]byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		rec := make([]byte, 10+rng.Intn(40))
		rng.Read(rec)
		rid, err := h.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		recs = append(recs, rec)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	qc := p.BeginQuery()
	defer qc.Release()
	for i, rid := range rids {
		got, err := h.GetCtx(qc, rid, buf)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// RIDs are physically ordered by append order.
	for i := 1; i < len(rids); i++ {
		if !rids[i-1].Less(rids[i]) {
			t.Fatalf("RIDs out of order: %v then %v", rids[i-1], rids[i])
		}
	}
}

func TestHeapFileScan(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	for i := 0; i < 50; i++ {
		if _, err := h.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	err := h.ScanPagesCtx(p, 0, h.NumPages()-1, func(rid RID, rec []byte) bool {
		seen = append(seen, string(rec))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("scanned %d records", len(seen))
	}
	for i, s := range seen {
		if want := fmt.Sprintf("rec-%02d", i); s != want {
			t.Fatalf("record %d = %q, want %q", i, s, want)
		}
	}
	// Early stop.
	count := 0
	h.ScanPagesCtx(p, 0, h.NumPages()-1, func(rid RID, rec []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
	// A full scan reads pages sequentially: all but the first read must be
	// charged at sequential cost.
	qc := p.BeginQuery()
	h.ScanPagesCtx(qc, 0, h.NumPages()-1, func(RID, []byte) bool { return true })
	st := qc.Stats()
	if st.RandReads != 1 || st.SeqReads != st.Reads-1 {
		t.Fatalf("scan I/O pattern not sequential: %+v", st)
	}
}

func TestHeapFileScanPagesSubrange(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	for i := 0; i < 60; i++ {
		h.Append([]byte(fmt.Sprintf("rec-%02d", i)))
	}
	h.Flush()
	if h.NumPages() < 3 {
		t.Skipf("need >= 3 pages, got %d", h.NumPages())
	}
	var count int
	h.ScanPagesCtx(p, 1, 1, func(RID, []byte) bool { count++; return true })
	if count == 0 || count >= 60 {
		t.Fatalf("mid-page scan visited %d", count)
	}
	// Out-of-range bounds are clamped.
	total := 0
	h.ScanPagesCtx(p, -5, 100, func(RID, []byte) bool { total++; return true })
	if total != 60 {
		t.Fatalf("clamped scan visited %d", total)
	}
}

// TestHeapFileScanRuns: a list of runs is walked in order, page by page, with
// the records of each exactly as one ScanPagesCtx per run would find them; an
// error from the run accessor ends the scan and comes back; a visitor's stop
// ends it cleanly; and the scan allocates the same for one run as for many
// (compared only without the race detector, under which a pooled visitor is
// sometimes dropped and allocated afresh).
func TestHeapFileScanRuns(t *testing.T) {
	p := NewPager(NewMemDisk(128), DefaultDiskModel, 1024) // every page stays resident
	h := NewHeapFile(p)
	for i := 0; i < 120; i++ {
		h.Append([]byte(fmt.Sprintf("rec-%03d", i)))
	}
	h.Flush()
	if h.NumPages() < 6 {
		t.Skipf("need >= 6 pages, got %d", h.NumPages())
	}
	runs := [][2]int{{0, 1}, {3, 3}, {5, 100}}
	at := func(i int) (int, int, error) { return runs[i][0], runs[i][1], nil }
	// records walks a page's slots the way the refinement's kernel does.
	records := func(visit func(rec []byte)) func(PageID, []byte) bool {
		return func(_ PageID, page []byte) bool {
			n, err := PageSlots(page)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				rec, ok := SlotRecord(page, s)
				if !ok {
					t.Fatalf("slot %d of %d refused", s, n)
				}
				visit(rec)
			}
			return true
		}
	}
	var want, got []string
	for _, r := range runs {
		h.ScanPagesCtx(p, r[0], r[1], func(_ RID, rec []byte) bool { want = append(want, string(rec)); return true })
	}
	if err := h.ScanRunsCtx(p, len(runs), at, records(func(rec []byte) { got = append(got, string(rec)) })); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("run scan visited %d records, per-run scans %d", len(got), len(want))
	}

	// The accessor's error stops the scan before run 1 is read.
	boom := errors.New("boom")
	seen := 0
	err := h.ScanRunsCtx(p, len(runs), func(i int) (int, int, error) {
		if i == 1 {
			return 0, 0, boom
		}
		return at(i)
	}, records(func([]byte) { seen++ }))
	if !errors.Is(err, boom) || seen == 0 || seen >= len(got) {
		t.Fatalf("accessor error: err=%v after %d records", err, seen)
	}

	// The visitor's stop ends the whole scan, not just its run.
	seen = 0
	if err := h.ScanRunsCtx(p, len(runs), at, func(PageID, []byte) bool { seen++; return seen < 3 }); err != nil || seen != 3 {
		t.Fatalf("early stop: err=%v after %d pages", err, seen)
	}

	visit := func(PageID, []byte) bool { return true }
	qc := p.BeginQuery()
	defer qc.Release()
	one := testing.AllocsPerRun(20, func() { h.ScanRunsCtx(qc, 1, at, visit) })
	many := testing.AllocsPerRun(20, func() { h.ScanRunsCtx(qc, len(runs), at, visit) })
	if !raceEnabled && one != many {
		t.Fatalf("scan allocates %v for one run, %v for %d", one, many, len(runs))
	}
}

func TestHeapFileRejectsOversizeRecord(t *testing.T) {
	d := NewMemDisk(64)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	if _, err := h.Append(make([]byte, 64)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestHeapFileGetBadSlot(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	rid, _ := h.Append([]byte("x"))
	h.Flush()
	qc := p.BeginQuery()
	defer qc.Release()
	if _, err := h.GetCtx(qc, RID{Page: rid.Page, Slot: 99}, nil); !errors.Is(err, ErrBadRID) {
		t.Fatal("bad slot accepted")
	}
}

func TestHeapFilePageIndex(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	for i := 0; i < 200; i++ {
		h.Append([]byte("0123456789abcdef"))
	}
	h.Flush()
	for i, id := range h.Pages() {
		if got := h.PageIndex(id); got != i {
			t.Fatalf("PageIndex(%d) = %d, want %d", id, got, i)
		}
	}
	if h.PageIndex(PageID(99999)) != -1 {
		t.Fatal("PageIndex of unknown page != -1")
	}
}

// TestHeapFilePositions resolves every position of heaps of random record
// lengths — 77-byte TIN records, 101-byte DEM records and records that nearly
// fill a page among them — to the RID Append returned for it, on the heap as
// built and as reopened from its page list and first positions: by a lone
// lookup, by an ascending cursor over every position and over random
// ascending subsets with long jumps. A position outside the heap fails, and
// OpenHeapFile refuses a first-position table that does not cut the records
// into one run per page.
func TestHeapFilePositions(t *testing.T) {
	const ps = 512
	maxRec := ps - pageHeaderSize - slotEntrySize
	rng := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		name   string
		length func() int
	}{
		{"tin", func() int { return 77 }},
		{"dem", func() int { return 101 }},
		{"nearly full", func() int { return maxRec - rng.Intn(3) }},
		{"empty", func() int { return rng.Intn(2) }},
		{"random", func() int {
			if rng.Intn(4) == 0 {
				return []int{0, 77, 101, maxRec}[rng.Intn(4)]
			}
			return rng.Intn(maxRec + 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPager(NewMemDisk(ps), DefaultDiskModel, 0)
			p.Alloc() // the heap's pages need not start at 0
			h := NewHeapFile(p)
			var want []RID
			for range 1500 {
				rid, err := h.Append(make([]byte, c.length()))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rid)
			}
			if err := h.Flush(); err != nil {
				t.Fatal(err)
			}
			opened, err := OpenHeapFile(p, h.Pages(), h.PageStarts(), h.Count())
			if err != nil {
				t.Fatal(err)
			}
			for _, hf := range []*HeapFile{h, opened} {
				checkPositions(t, hf, want, rng)
			}
		})
	}

	p := NewPager(NewMemDisk(ps), DefaultDiskModel, 0)
	for _, c := range []struct {
		name   string
		pages  []PageID
		starts []uint32
		count  int
	}{
		{"table shorter than the pages", []PageID{1, 2}, []uint32{0}, 4},
		{"records without pages", nil, nil, 3},
		{"first page past position 0", []PageID{1}, []uint32{1}, 4},
		{"positions not ascending", []PageID{1, 2, 3}, []uint32{0, 3, 3}, 6},
		{"a page past the last record", []PageID{1, 2}, []uint32{0, 4}, 4},
		{"more records than slots", []PageID{1}, []uint32{0}, (ps-pageHeaderSize)/slotEntrySize + 1},
		{"pages not ascending", []PageID{2, 1}, []uint32{0, 2}, 4},
	} {
		if _, err := OpenHeapFile(p, c.pages, c.starts, c.count); err == nil {
			t.Errorf("%s: opened", c.name)
		}
	}
	if _, err := OpenHeapFile(p, nil, nil, 0); err != nil {
		t.Errorf("empty heap: %v", err)
	}
}

// checkPositions checks h's lookups against want, the RIDs of its records in
// append order.
func checkPositions(t *testing.T, h *HeapFile, want []RID, rng *rand.Rand) {
	t.Helper()
	at := h.Cursor()
	for pos, rid := range want {
		got, err := h.Locate(pos)
		if err != nil || got != rid {
			t.Fatalf("Locate(%d) = %v, %v; want %v", pos, got, err, rid)
		}
		pi, err := h.PageOf(pos)
		if err != nil || h.Pages()[pi] != rid.Page {
			t.Fatalf("PageOf(%d) = %d, %v; want the index of page %d", pos, pi, err, rid.Page)
		}
		if start, end := h.PageSpan(pi); pos < start || pos >= end || pos-start != int(rid.Slot) {
			t.Fatalf("position %d: page %d spans [%d, %d), want slot %d", pos, pi, start, end, rid.Slot)
		}
		if c := at.Page(pos); c != pi {
			t.Fatalf("cursor puts position %d on page %d, Locate on %d", pos, c, pi)
		}
	}
	for range 50 {
		at := h.Cursor()
		for pos := rng.Intn(8); pos < len(want); pos += 1 + rng.Intn([]int{2, 40, 600}[rng.Intn(3)]) {
			if pi := at.Page(pos); h.Pages()[pi] != want[pos].Page {
				t.Fatalf("cursor puts position %d on page %d, want page id %d", pos, h.Pages()[pi], want[pos].Page)
			}
		}
	}
	for _, pos := range []int{-1, len(want), len(want) + 1000} {
		if _, err := h.Locate(pos); !errors.Is(err, ErrBadRID) {
			t.Fatalf("Locate(%d) of %d records = %v, want ErrBadRID", pos, len(want), err)
		}
		if _, err := h.PageOf(pos); !errors.Is(err, ErrBadRID) {
			t.Fatalf("PageOf(%d) of %d records = %v, want ErrBadRID", pos, len(want), err)
		}
	}
}

func TestRIDLess(t *testing.T) {
	a := RID{Page: 1, Slot: 5}
	b := RID{Page: 1, Slot: 6}
	c := RID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || b.Less(a) || a.Less(a) {
		t.Fatal("RID ordering broken")
	}
	if a.String() != "1:5" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestSnapshotTo(t *testing.T) {
	src := NewMemDisk(128)
	p := NewPager(src, DefaultDiskModel, 0)
	for i := 0; i < 5; i++ {
		id, _ := p.Alloc()
		buf := make([]byte, 128)
		copy(buf, fmt.Sprintf("page-%d", i))
		p.WritePage(id, buf)
	}
	before := p.Stats()
	dst := tempFileDisk(t, 128)
	if err := p.SnapshotTo(dst); err != nil {
		t.Fatal(err)
	}
	// Snapshot bypasses accounting.
	if p.Stats() != before {
		t.Fatalf("snapshot changed stats: %v -> %v", before, p.Stats())
	}
	if dst.NumPages() != 5 {
		t.Fatalf("dst pages = %d", dst.NumPages())
	}
	for i := 0; i < 5; i++ {
		buf := diskPage(t, dst, PageID(i))
		want := fmt.Sprintf("page-%d", i)
		if string(buf[:len(want)]) != want {
			t.Fatalf("page %d content %q", i, buf[:len(want)])
		}
	}
	// Mismatched page size rejected.
	if err := p.SnapshotTo(tempFileDisk(t, 64)); err == nil {
		t.Fatal("page size mismatch accepted")
	}
	// Non-empty destination rejected.
	if err := p.SnapshotTo(dst); err == nil {
		t.Fatal("non-empty destination accepted")
	}
}

func TestOpenHeapFileReadOnly(t *testing.T) {
	d := NewMemDisk(128)
	p := NewPager(d, DefaultDiskModel, 0)
	h := NewHeapFile(p)
	for i := 0; i < 20; i++ {
		h.Append([]byte(fmt.Sprintf("rec-%02d", i)))
	}
	h.Flush()
	h2, err := OpenHeapFile(p, h.Pages(), h.PageStarts(), h.Count())
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 20 || h2.NumPages() != h.NumPages() {
		t.Fatalf("reopened: %d recs / %d pages", h2.Count(), h2.NumPages())
	}
	var got []string
	h2.ScanPagesCtx(p, 0, h2.NumPages()-1, func(_ RID, rec []byte) bool { got = append(got, string(rec)); return true })
	if len(got) != 20 || got[0] != "rec-00" || got[19] != "rec-19" {
		t.Fatalf("reopened scan = %v", got)
	}
	if _, err := h2.Append([]byte("x")); err == nil {
		t.Fatal("append to read-only heap accepted")
	}
}
