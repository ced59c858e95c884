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
		p := NewPagerShards(NewMemDisk(DefaultPageSize), DefaultDiskModel, c.size, c.shards)
		if got := p.PoolShards(); got != c.want {
			t.Errorf("size %d shards %d: got %d shards, want %d", c.size, c.shards, got, c.want)
		}
	}
	if got := NewPager(NewMemDisk(DefaultPageSize), DefaultDiskModel, 0).PoolShards(); got != 0 {
		t.Errorf("disabled pool reports %d shards", got)
	}
}

func TestShardedPoolSmallerThanShardCountCaches(t *testing.T) {
	// A pool of 3 pages asked to use 16 shards must still cache: re-reading
	// the last-read page is a hit at every shard geometry.
	disk := stampDisk(t, 128, 8)
	p := NewPagerShards(disk, DefaultDiskModel, 3, 16)
	buf := make([]byte, 128)
	for i := 0; i < 8; i++ {
		if err := p.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats()
	if err := p.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	d := p.Stats().Sub(before)
	if d.CacheHits != 1 || d.Reads != 0 {
		t.Fatalf("re-read of resident page: %+v", d)
	}
	if buf[0] != 7 {
		t.Fatalf("page 7 content byte = %d", buf[0])
	}
}

func TestShardedPoolSizeOne(t *testing.T) {
	disk := stampDisk(t, 128, 4)
	p := NewPagerShards(disk, DefaultDiskModel, 1, 8)
	buf := make([]byte, 128)
	// 0, 0 -> read + hit; 1 evicts 0; 0 misses again.
	reads := []struct {
		id       PageID
		wantHit  bool
		wantByte byte
	}{
		{0, false, 0}, {0, true, 0}, {1, false, 1}, {0, false, 0},
	}
	for i, r := range reads {
		before := p.Stats()
		if err := p.ReadPage(r.id, buf); err != nil {
			t.Fatal(err)
		}
		d := p.Stats().Sub(before)
		if gotHit := d.CacheHits == 1; gotHit != r.wantHit {
			t.Fatalf("read %d of page %d: hit=%v want %v", i, r.id, gotHit, r.wantHit)
		}
		if buf[0] != r.wantByte {
			t.Fatalf("read %d of page %d: byte %d", i, r.id, buf[0])
		}
	}
}

func TestFrameSurvivesEviction(t *testing.T) {
	// A frame held by a reader keeps its immutable image after the pool
	// evicts the page, while the misses that follow — copies, views, runs —
	// take recycled frames off the freelist: never the held one, and each
	// carrying the page it was read for.
	const pages, capacity = 24, 4
	disk := stampDisk(t, 128, pages)
	p := NewPagerShards(disk, DefaultDiskModel, capacity, 1)
	held, err := p.ViewPage(3)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{3}, 128)
	check := func(id PageID, page []byte) {
		t.Helper()
		if !bytes.Equal(page, bytes.Repeat([]byte{byte(id)}, 128)) {
			t.Fatalf("page %d came back holding %d", id, page[0])
		}
		if !bytes.Equal(held.Data(), want) {
			t.Fatalf("held frame mutated while page %d was read", id)
		}
	}
	// Each pass inserts 2 × capacity pages past the held one.
	buf := make([]byte, 128)
	for id := PageID(4); id < 4+2*capacity; id++ {
		if err := p.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		check(id, buf)
	}
	for id := PageID(12); id < 12+2*capacity; id++ {
		f, err := p.ViewPage(id)
		if err != nil {
			t.Fatal(err)
		}
		check(id, f.Data())
		f.Release()
	}
	err = p.ReadRun(4, 4+2*capacity-1, func(id PageID, page []byte) bool {
		check(id, page)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.PoolShardStats()[0]; st.Len != capacity {
		t.Fatalf("pool holds %d frames, capacity %d", st.Len, capacity)
	}
	held.Release()
	// The released frame is on the freelist now; whoever takes it over gets
	// its own page, not page 3's.
	for id := PageID(pages - capacity - 1); id < pages; id++ {
		f, err := p.ViewPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data(), bytes.Repeat([]byte{byte(id)}, 128)) {
			t.Fatalf("page %d came back holding %d", id, f.Data()[0])
		}
		f.Release()
	}
}

// TestPoolEvictionOrderMatchesListLRU drives a single-shard pool, whose
// recency list runs through the frames themselves, and a container/list model
// of the LRU it replaced with the same recorded page sequence — views, copies
// and runs; re-reference of the head, the tail and a middle frame; pages
// written while resident — and requires the same hit or miss on every access.
func TestPoolEvictionOrderMatchesListLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		pages := 3 * capacity
		disk := stampDisk(t, 128, pages)
		p := NewPagerShards(disk, DefaultDiskModel, capacity, 1)
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
		buf := make([]byte, 128)
		for i := 0; i < 5000; i++ {
			id := PageID(rng.Intn(pages))
			before := p.PoolShardStats()[0]
			want := int64(0)
			switch rng.Intn(4) {
			case 0:
				f, err := p.ViewPage(id)
				if err != nil {
					t.Fatal(err)
				}
				f.Release()
				if touch(id) {
					want++
				}
			case 1:
				if err := p.ReadPage(id, buf); err != nil {
					t.Fatal(err)
				}
				if touch(id) {
					want++
				}
			case 2:
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
			case 3:
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
	p := NewPager(stampDisk(t, 128, 1), DefaultDiskModel, 0)
	f, err := p.ViewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	f.Release()
}

func TestWriteSwapsFrameUnderReader(t *testing.T) {
	// WritePage must not mutate a frame a reader is holding: the reader
	// keeps the pre-write image, the next view sees the new one.
	disk := stampDisk(t, 128, 2)
	p := NewPager(disk, DefaultDiskModel, 4)
	f, err := p.ViewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	newImg := bytes.Repeat([]byte{0xAA}, 128)
	if err := p.WritePage(0, newImg); err != nil {
		t.Fatal(err)
	}
	if f.Data()[0] != 0 {
		t.Fatal("reader's frame changed under a concurrent write")
	}
	f.Release()
	g, err := p.ViewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Data(), newImg) {
		t.Fatal("view after write returned the stale image")
	}
	g.Release()
}

func TestConcurrentSamePageInsert(t *testing.T) {
	// Many contexts faulting in the same page concurrently must agree on
	// one frame's data and keep every refcount balanced (run with -race).
	const goroutines = 16
	disk := stampDisk(t, 128, 64)
	p := NewPagerShards(disk, DefaultDiskModel, 8, 4)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qc := p.BeginQuery()
			for round := 0; round < 200; round++ {
				id := PageID(round % 8) // all goroutines hammer the same 8 pages
				f, err := qc.ViewPage(id)
				if err != nil {
					errc <- err
					return
				}
				if f.Data()[0] != byte(id) {
					errc <- fmt.Errorf("goroutine %d: page %d holds byte %d", g, id, f.Data()[0])
					f.Release()
					return
				}
				f.Release()
			}
			qc.Stats()
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestConcurrentEvictionRefcounts(t *testing.T) {
	// Concurrent readers over a working set much larger than the pool force
	// constant eviction while frames are pinned; -race plus the data checks
	// catch use-after-recycle.
	const pages = 96
	disk := stampDisk(t, 128, pages)
	p := NewPagerShards(disk, DefaultDiskModel, 4, 2)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qc := p.BeginQuery()
			step := g + 1
			for round := 0; round < 300; round++ {
				id := PageID((round * step) % pages)
				f, err := qc.ViewPage(id)
				if err != nil {
					errc <- err
					return
				}
				data := f.Data()
				for _, b := range data[:8] {
					if b != byte(id) {
						errc <- fmt.Errorf("goroutine %d: page %d corrupted to %d", g, id, b)
						f.Release()
						return
					}
				}
				f.Release()
			}
			qc.Stats()
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestReadRunMatchesPerPageAccounting(t *testing.T) {
	// A run read must charge exactly what the equivalent ReadPage loop
	// charges, across chunk boundaries (> runChunkPages pages) and with a
	// partially resident pool.
	const pages = 3*runChunkPages + 7
	disk := stampDisk(t, 128, pages)
	for _, poolSize := range []int{0, 4, 1 << 10} {
		p := NewPagerShards(disk, DefaultDiskModel, poolSize, 4)
		warm := p.BeginQuery()
		buf := make([]byte, 128)
		for i := 0; i < pages; i += 3 { // leave a scattered residue in the pool
			if err := warm.ReadPage(PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		warm.Stats()

		loop := p.BeginQuery()
		var loopPages []byte
		for i := 0; i < pages; i++ {
			if err := loop.ReadPage(PageID(i), buf); err != nil {
				t.Fatal(err)
			}
			loopPages = append(loopPages, buf[0])
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

func TestPagerViewPageAccountsLikeReadPage(t *testing.T) {
	// Replay one access sequence on two fresh pagers, one per API: the
	// page images and the accounting must agree exactly.
	seq := []PageID{0, 1, 2, 2, 0, 6, 7, 1}
	pr := NewPager(stampDisk(t, 128, 8), DefaultDiskModel, 4)
	pv := NewPager(stampDisk(t, 128, 8), DefaultDiskModel, 4)
	buf := make([]byte, 128)
	for _, id := range seq {
		if err := pr.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		f, err := pv.ViewPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data(), buf) {
			t.Fatalf("view of page %d differs from read", id)
		}
		f.Release()
	}
	if pr.Stats() != pv.Stats() {
		t.Fatalf("ReadPage stats %v != ViewPage stats %v", pr.Stats(), pv.Stats())
	}
}

func TestDropCacheReleasesPoolFrames(t *testing.T) {
	disk := stampDisk(t, 128, 8)
	p := NewPagerShards(disk, DefaultDiskModel, 8, 4)
	held, err := p.ViewPage(2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i := 0; i < 8; i++ {
		if err := p.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	p.DropCache()
	if held.Data()[0] != 2 {
		t.Fatal("held frame lost its image on DropCache")
	}
	held.Release()
	before := p.Stats()
	if err := p.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().Sub(before); d.CacheHits != 0 || d.Reads != 1 {
		t.Fatalf("read after DropCache: %+v", d)
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
