package storage

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stampDisk returns a MemDisk with n pages, page i filled with byte i.
func stampDisk(t *testing.T, pageSize, n int) *MemDisk {
	t.Helper()
	disk := NewMemDisk(pageSize)
	buf := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		id, err := disk.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := disk.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return disk
}

// newShardedPager is NewPager with the pool split into an explicit number of
// shards (see newShardedPool).
func newShardedPager(disk Disk, size, shards int) *Pager {
	p := NewPager(disk, DefaultDiskModel, size)
	if size > 0 {
		p.pool = newShardedPool(size, shards, p.free)
	}
	return p
}

// stamped reports whether page holds page id's stamp (see stampDisk).
func stamped(id PageID, page []byte) bool {
	return bytes.Equal(page, bytes.Repeat([]byte{byte(id)}, len(page)))
}

func TestShardedPoolClampsShardCount(t *testing.T) {
	// The shard count never exceeds the pool size: every shard must hold at
	// least one frame, or caching would silently disappear.
	cases := []struct {
		size, shards, want int
	}{
		{size: 3, shards: 16, want: 2}, // clamped to the largest power of two <= size
		{size: 1, shards: 16, want: 1},
		{size: 1024, shards: 16, want: 16},
		{size: 1024, shards: 7, want: 4}, // rounded down to a power of two
		{size: 2, shards: 0, want: 1},    // auto: small pools stay single-sharded
		{size: 4096, shards: 0, want: 16},
	}
	for _, c := range cases {
		if got := len(newShardedPool(c.size, c.shards, nil).shards); got != c.want {
			t.Errorf("size %d shards %d: got %d shards, want %d", c.size, c.shards, got, c.want)
		}
	}
	if got := NewPager(NewMemDisk(DefaultPageSize), DefaultDiskModel, 0).PoolShardStats(); got != nil {
		t.Errorf("disabled pool reports %d shards", len(got))
	}
}

func TestShardedPoolSmallerThanShardCountCaches(t *testing.T) {
	// A pool of 3 pages asked to use 16 shards must still cache: re-reading
	// the last-read page is a hit at every shard geometry.
	disk := stampDisk(t, 128, 8)
	p := newShardedPager(disk, 3, 16)
	for i := 0; i < 8; i++ {
		readPage(t, p, PageID(i))
	}
	hits, misses := poolHits(p)
	buf := readPage(t, p, 7)
	h, m := poolHits(p)
	if h-hits != 1 || m != misses {
		t.Fatalf("re-read of resident page: %d hits, %d misses", h-hits, m-misses)
	}
	if buf[0] != 7 {
		t.Fatalf("page 7 content byte = %d", buf[0])
	}
}

func TestShardedPoolSizeOne(t *testing.T) {
	disk := stampDisk(t, 128, 4)
	p := newShardedPager(disk, 1, 8)
	// 0, 0 -> read + hit; 1 evicts 0; 0 misses again.
	reads := []struct {
		id      PageID
		wantHit bool
	}{
		{0, false}, {0, true}, {1, false}, {0, false},
	}
	for i, r := range reads {
		before, _ := poolHits(p)
		buf := readPage(t, p, r.id)
		after, _ := poolHits(p)
		if gotHit := after-before == 1; gotHit != r.wantHit {
			t.Fatalf("read %d of page %d: hit=%v want %v", i, r.id, gotHit, r.wantHit)
		}
		if !stamped(r.id, buf) {
			t.Fatalf("read %d of page %d: byte %d", i, r.id, buf[0])
		}
	}
}

func TestFrameSurvivesEviction(t *testing.T) {
	// A page a reader is handed stays pinned for its callback: the pool may
	// evict it meanwhile, but the image keeps its bytes while the misses that
	// follow — single pages and runs — take recycled frames off the freelist:
	// never the held one, and each carrying the page it was read for.
	const pages, capacity = 24, 4
	disk := stampDisk(t, 128, pages)
	p := newShardedPager(disk, capacity, 1)
	check := func(id PageID, page []byte) bool {
		t.Helper()
		if !stamped(id, page) {
			t.Fatalf("page %d came back holding %d", id, page[0])
		}
		return true
	}
	err := p.ReadRun(3, 3, func(_ PageID, held []byte) bool {
		// Each pass inserts 2 × capacity pages past the held one.
		for id := PageID(4); id < 4+2*capacity; id++ {
			check(id, readPage(t, p, id))
			check(3, held)
		}
		err := p.ReadRun(12, 12+2*capacity-1, func(id PageID, page []byte) bool {
			check(3, held)
			return check(id, page)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.PoolShardStats()[0]; st.Len != capacity {
			t.Fatalf("pool holds %d frames, capacity %d", st.Len, capacity)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// The released frame is on the freelist now; whoever takes it over gets
	// its own page, not page 3's.
	if err := p.ReadRun(pages-capacity-1, pages-1, check); err != nil {
		t.Fatal(err)
	}
}

// TestPoolEvictionOrderMatchesListLRU drives a single-shard pool, whose
// recency list runs through the frames themselves, and a container/list model
// of the LRU it replaced with the same recorded page sequence — single pages
// and runs; re-reference of the head, the tail and a middle frame; pages
// written while resident — and requires the same hit or miss on every access.
func TestPoolEvictionOrderMatchesListLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		pages := 3 * capacity
		disk := stampDisk(t, 128, pages)
		p := newShardedPager(disk, capacity, 1)
		model, order := map[PageID]*list.Element{}, list.New()
		touch := func(id PageID) (hit bool) {
			el, hit := model[id]
			if hit {
				order.MoveToFront(el)
				return true
			}
			for order.Len() >= capacity {
				back := order.Back()
				order.Remove(back)
				delete(model, back.Value.(PageID))
			}
			model[id] = order.PushFront(id)
			return false
		}
		for i := 0; i < 5000; i++ {
			id := PageID(rng.Intn(pages))
			before := p.PoolShardStats()[0]
			want := int64(0)
			if rng.Intn(4) < 3 {
				last := min(id+PageID(rng.Intn(3)), PageID(pages-1))
				if err := p.ReadRun(id, last, func(PageID, []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
				// A run probes all its pages first, then inserts the missing
				// ones in page order.
				var missing []PageID
				for r := id; r <= last; r++ {
					if _, ok := model[r]; ok {
						touch(r)
						want++
					} else {
						missing = append(missing, r)
					}
				}
				for _, r := range missing {
					touch(r)
				}
			} else {
				// A write refreshes a resident page in place: no probe, no move.
				if err := p.WritePage(id, bytes.Repeat([]byte{byte(id)}, 128)); err != nil {
					t.Fatal(err)
				}
			}
			after := p.PoolShardStats()[0]
			if got := after.Hits - before.Hits; got != want {
				t.Fatalf("capacity %d, access %d (page %d): %d hits, list LRU says %d", capacity, i, id, got, want)
			}
			if after.Len != order.Len() {
				t.Fatalf("capacity %d, access %d: pool holds %d frames, list LRU %d", capacity, i, after.Len, order.Len())
			}
		}
	}
}

func TestFrameOverReleasePanics(t *testing.T) {
	f := newFramePool(128).get(0)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	f.Release()
}

func TestWriteSwapsFrameUnderReader(t *testing.T) {
	// WritePage must not mutate a page a reader is holding: the reader keeps
	// the pre-write image, the next read sees the new one.
	disk := stampDisk(t, 128, 2)
	p := NewPager(disk, DefaultDiskModel, 4)
	newImg := bytes.Repeat([]byte{0xAA}, 128)
	err := p.ReadRun(0, 0, func(_ PageID, held []byte) bool {
		if err := p.WritePage(0, newImg); err != nil {
			t.Fatal(err)
		}
		if held[0] != 0 {
			t.Fatal("reader's page changed under a concurrent write")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readPage(t, p, 0), newImg) {
		t.Fatal("read after write returned the stale image")
	}
}

func TestLentFrameKeepsItsBytes(t *testing.T) {
	// A MemDisk's pages are lent, not copied: the frame a reader is handed
	// holds the disk's own image. A rewrite of the page — straight on the
	// disk or through the pager — installs a fresh image and leaves the lent
	// one as the reader saw it, and so does evicting the page and reading its
	// new image back in while the old one is held.
	const pages, capacity = 8, 2
	disk := stampDisk(t, 128, pages)
	p := newShardedPager(disk, capacity, 1)
	rewrite := bytes.Repeat([]byte{0xAA}, 128)
	err := p.ReadRun(0, 0, func(_ PageID, held []byte) bool {
		if &held[0] != &disk.pages[0][0] {
			t.Fatal("the pool copied page 0 instead of lending the disk's image")
		}
		if err := disk.WritePage(0, rewrite); err != nil {
			t.Fatal(err)
		}
		if !stamped(0, held) {
			t.Fatal("a disk write changed the image a reader holds")
		}
		if err := p.WritePage(0, bytes.Repeat([]byte{0xBB}, 128)); err != nil {
			t.Fatal(err)
		}
		if !stamped(0, held) {
			t.Fatal("a pager write changed the image a reader holds")
		}
		for id := PageID(1); id <= 2*capacity; id++ { // evicts page 0
			if !stamped(id, readPage(t, p, id)) {
				t.Fatalf("page %d came back holding another page", id)
			}
		}
		if got := readPage(t, p, 0); got[0] != 0xBB {
			t.Fatalf("page 0 reads back %#x after eviction, want the last write", got[0])
		}
		if !stamped(0, held) {
			t.Fatal("re-reading an evicted page changed the image a reader holds")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// The held header is back on the freelist; whoever takes it over lends
	// its own page, and a page never written reads as zeroes.
	err = p.ReadRun(3, pages-1, func(id PageID, page []byte) bool {
		if !stamped(id, page) {
			t.Errorf("page %d came back holding %d", id, page[0])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := disk.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readPage(t, p, id), make([]byte, 128)) {
		t.Fatal("a never-written page does not read as zeroes through the pager")
	}
	dirty := bytes.Repeat([]byte{0xCC}, 128)
	if err := disk.ReadRun(id, [][]byte{dirty}); err != nil || !bytes.Equal(dirty, make([]byte, 128)) {
		t.Fatalf("a never-written page does not read as zeroes off the disk (%v)", err)
	}
}

// hammer runs one query context per goroutine, each reading rounds single
// pages — page(g, round) for goroutine g — and checking every image it is
// handed against its stamp (see stampDisk).
func hammer(t *testing.T, p *Pager, goroutines, rounds int, page func(g, round int) PageID) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qc := p.BeginQuery()
			defer qc.Stats()
			for round := 0; round < rounds; round++ {
				id, ok := page(g, round), true
				if err := qc.ReadRun(id, id, func(_ PageID, img []byte) bool { ok = stamped(id, img); return true }); err != nil || !ok {
					errc <- fmt.Errorf("goroutine %d, page %d: err %v, stamped %v", g, id, err, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestConcurrentSamePageInsert(t *testing.T) {
	// Many contexts faulting in the same page concurrently must agree on
	// one frame's data and keep every refcount balanced (run with -race).
	p := newShardedPager(stampDisk(t, 128, 64), 8, 4)
	// All goroutines hammer the same 8 pages.
	hammer(t, p, 16, 200, func(_, round int) PageID { return PageID(round % 8) })
}

func TestConcurrentEvictionRefcounts(t *testing.T) {
	// Concurrent readers over a working set much larger than the pool force
	// constant eviction while frames are pinned; -race plus the data checks
	// catch use-after-recycle.
	const pages = 96
	p := newShardedPager(stampDisk(t, 128, pages), 4, 2)
	hammer(t, p, 8, 300, func(g, round int) PageID { return PageID(round * (g + 1) % pages) })
}

func TestReadRunMatchesPerPageAccounting(t *testing.T) {
	// A run read must charge exactly what the equivalent page-at-a-time loop
	// charges, across chunk boundaries (> runChunkPages pages) and with a
	// partially resident pool.
	const pages = 3*runChunkPages + 7
	disk := stampDisk(t, 128, pages)
	for _, poolSize := range []int{0, 4, 1 << 10} {
		p := newShardedPager(disk, poolSize, 4)
		warm := p.BeginQuery()
		for i := 0; i < pages; i += 3 { // leave a scattered residue in the pool
			readPage(t, warm, PageID(i))
		}
		warm.Stats()

		loop := p.BeginQuery()
		var loopPages []byte
		for i := 0; i < pages; i++ {
			loopPages = append(loopPages, readPage(t, loop, PageID(i))[0])
		}
		run := p.BeginQuery()
		var runPages []byte
		err := run.ReadRun(0, pages-1, func(id PageID, page []byte) bool {
			runPages = append(runPages, page[0])
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if ls, rs := loop.Stats(), run.Stats(); ls != rs {
			t.Fatalf("pool %d: loop %v != run %v", poolSize, ls, rs)
		}
		if !bytes.Equal(loopPages, runPages) {
			t.Fatalf("pool %d: run returned different page images", poolSize)
		}
	}
}

func TestReadRunEarlyStopChargesPrefixOnly(t *testing.T) {
	disk := stampDisk(t, 128, 32)
	p := NewPager(disk, DefaultDiskModel, 16)
	qc := p.BeginQuery()
	visited := 0
	err := qc.ReadRun(0, 31, func(id PageID, page []byte) bool {
		visited++
		return visited < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 5 {
		t.Fatalf("visited %d pages, want 5", visited)
	}
	s := qc.Stats()
	if s.Reads != 5 || s.RandReads != 1 || s.SeqReads != 4 {
		t.Fatalf("early-stopped run charged %v", s)
	}
}

func TestReadRunOutOfRange(t *testing.T) {
	disk := stampDisk(t, 128, 4)
	p := NewPager(disk, DefaultDiskModel, 8)
	qc := p.BeginQuery()
	err := qc.ReadRun(2, 9, func(PageID, []byte) bool { return true })
	if err == nil {
		t.Fatal("run past the end of the disk succeeded")
	}
	if s := qc.Stats(); s.Reads != 0 {
		t.Fatalf("failed run charged %v", s)
	}
}

func TestDropCacheReleasesPoolFrames(t *testing.T) {
	disk := stampDisk(t, 128, 8)
	p := newShardedPager(disk, 8, 4)
	err := p.ReadRun(2, 2, func(_ PageID, held []byte) bool {
		if err := p.ReadRun(0, 7, func(PageID, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		p.DropCache()
		if held[0] != 2 {
			t.Fatal("held page lost its image on DropCache")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := poolHits(p)
	readPage(t, p, 2)
	if h, m := poolHits(p); h != hits || m != misses+1 {
		t.Fatalf("read after DropCache: %d hits, %d misses", h-hits, m-misses)
	}
}

// TestQueryCtxPrivatePoolMatchesListLRU drives the slice-backed private pool
// view and a container/list model of the LRU it replaced with the same random
// page sequences — capacities from one page up, so eviction, re-reference of
// the head, the tail and a middle node all occur — and requires the same
// hit/miss verdict on every access: the charge sequence of a query.
func TestQueryCtxPrivatePoolMatchesListLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		p := NewPager(NewMemDisk(DefaultPageSize), DefaultDiskModel, capacity)
		qc := p.BeginQuery()
		model, order := map[PageID]*list.Element{}, list.New()
		for i := 0; i < 20000; i++ {
			id := PageID(rng.Intn(3 * capacity))
			before := qc.LocalStats()
			qc.ChargePage(id)
			hit := qc.LocalStats().CacheHits > before.CacheHits
			el, want := model[id]
			if want {
				order.MoveToFront(el)
			} else {
				for order.Len() >= capacity {
					back := order.Back()
					order.Remove(back)
					delete(model, back.Value.(PageID))
				}
				model[id] = order.PushFront(id)
			}
			if hit != want {
				t.Fatalf("capacity %d, access %d (page %d): hit = %v, list LRU says %v", capacity, i, id, hit, want)
			}
		}
		qc.Release()
	}
}
