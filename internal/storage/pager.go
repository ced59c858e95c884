package storage

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fielddb/internal/obs"
)

// DiskModel describes the simulated cost of page accesses. The defaults model
// a circa-2001 commodity disk (the paper's testbed era): a random page access
// pays a full seek + rotational delay, while the next physically contiguous
// page streams at media rate.
type DiskModel struct {
	// RandomRead is charged for a page that is not the successor of the
	// previously accessed page.
	RandomRead time.Duration
	// SequentialRead is charged for accessing page n+1 right after page n.
	SequentialRead time.Duration
}

// DefaultDiskModel is the cost model used by the experiment harness. It is
// calibrated to the paper's measurement setting — a Unix system whose
// database file is partially resident in the OS cache, so a random page
// access costs a few times a sequential one rather than a full mechanical
// seek (the paper's absolute times, e.g. 12 ms to linear-scan 262k cells,
// are only possible with cache-backed I/O). Use Disk2001Model for a
// cold-disk sensitivity analysis.
var DefaultDiskModel = DiskModel{
	RandomRead:     1 * time.Millisecond,
	SequentialRead: 250 * time.Microsecond,
}

// Disk2001Model charges full mechanical seeks, approximating a cold
// commodity disk of the paper's era.
var Disk2001Model = DiskModel{
	RandomRead:     10 * time.Millisecond,
	SequentialRead: 500 * time.Microsecond,
}

// Stats accumulates the I/O activity of a Pager or QueryCtx. Counters are
// cumulative; use Sub on two snapshots, or a QueryCtx's own Stats, to scope a
// measurement to one query.
type Stats struct {
	Reads      int           // total page reads that reached the disk
	SeqReads   int           // reads charged at sequential cost
	RandReads  int           // reads charged at random cost
	Writes     int           // page writes
	CacheHits  int           // reads served by the buffer pool
	SimElapsed time.Duration // simulated disk time for all charged accesses
}

// Sub returns s - o, the activity between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:      s.Reads - o.Reads,
		SeqReads:   s.SeqReads - o.SeqReads,
		RandReads:  s.RandReads - o.RandReads,
		Writes:     s.Writes - o.Writes,
		CacheHits:  s.CacheHits - o.CacheHits,
		SimElapsed: s.SimElapsed - o.SimElapsed,
	}
}

// Add returns s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:      s.Reads + o.Reads,
		SeqReads:   s.SeqReads + o.SeqReads,
		RandReads:  s.RandReads + o.RandReads,
		Writes:     s.Writes + o.Writes,
		CacheHits:  s.CacheHits + o.CacheHits,
		SimElapsed: s.SimElapsed + o.SimElapsed,
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d (seq=%d rand=%d) hits=%d writes=%d sim=%v",
		s.Reads, s.SeqReads, s.RandReads, s.CacheHits, s.Writes, s.SimElapsed)
}

// PageCounts converts the read-side counters to the obs mirror type (obs sits
// below storage in the import order and cannot name Stats).
func (s Stats) PageCounts() obs.PageCounts {
	return obs.PageCounts{
		Reads:      s.Reads,
		SeqReads:   s.SeqReads,
		RandReads:  s.RandReads,
		CacheHits:  s.CacheHits,
		SimElapsed: s.SimElapsed,
	}
}

// PageReader is the read side of the paged store: one way to read, a
// contiguous run of pages. *QueryCtx is the reader every query runs on, and
// *Pager reads a run as a one-shot query context.
type PageReader interface {
	// ReadRun visits the contiguous page range [first, last] in order with
	// batched pool interaction and at most one disk call per missing sub-run,
	// charging each page as it is handed over (first page random, successors
	// sequential; within-query revisits as cache hits). fn receives each page
	// image, valid only during the call; returning false stops the run and
	// leaves the remaining pages unread and uncharged. fn may read further
	// runs through the same reader: the page it was handed stays pinned until
	// it returns.
	ReadRun(first, last PageID, fn func(id PageID, page []byte) bool) error
}

// runChunkPages bounds how many frames a ReadRun pins at once, so an
// arbitrarily long run uses bounded memory.
const runChunkPages = 64

// Pager mediates all page access through a shared sharded buffer pool and the
// query contexts that charge it. A pool size of zero — the cold-cache setting
// of the paper's experiments — disables caching so every page access hits the
// disk.
//
// The Pager is safe for concurrent use. Shared state is limited to the disk,
// the buffer pool, and the cumulative Stats totals; everything per-query
// (a query's own Stats and its sequential-read clock) lives in a QueryCtx
// obtained from BeginQuery, so concurrent queries cannot corrupt each other's
// accounting.
type Pager struct {
	disk     Disk
	model    DiskModel
	poolSize int
	pool     *shardedPool // nil when poolSize == 0
	free     *framePool   // frame freelist shared with the pool
	// mem is disk when it is a MemDisk, whose page images the pager lends
	// to its frames instead of copying them: then free holds headers only.
	mem *MemDisk

	mu    sync.Mutex // guards stats
	stats Stats

	// epoch and ov form the MVCC plane (see epoch.go): the current epoch new
	// queries pin, and the copy-on-write overlay versions of updated pages.
	epoch atomic.Uint64
	ov    epochPlane
}

// NewPager wraps disk with accounting under the given cost model. poolSize is
// the number of pages the buffer pool may hold; zero disables caching
// entirely. Pools under minShardedPoolSize pages keep one shard — the exact
// global LRU eviction order of a single-mutex pool — and larger ones split
// into poolShards.
func NewPager(disk Disk, model DiskModel, poolSize int) *Pager {
	if poolSize < 0 {
		poolSize = 0
	}
	p := &Pager{
		disk:     disk,
		model:    model,
		poolSize: poolSize,
		free:     newFramePool(disk.PageSize()),
	}
	if mem, ok := disk.(*MemDisk); ok {
		p.mem, p.free = mem, newFramePool(0)
	}
	if poolSize > 0 {
		p.pool = newShardedPool(poolSize, 0, p.free)
	}
	return p
}

// PageSize returns the underlying disk's page size.
func (p *Pager) PageSize() int { return p.disk.PageSize() }

// NumPages returns the underlying disk's page count.
func (p *Pager) NumPages() int { return p.disk.NumPages() }

// viewRunThrough fills frames with retained frames for the pages
// first..first+len(frames)-1 as seen at epoch: overlaid pages resolve to
// their overlay version, the rest come from one batched pool probe, and each
// maximal still-missing sub-run is fetched with a single disk read. On error
// all frames are released and frames is left nil-filled. bufs is the caller's
// scratch for the buffer lists of those reads, at least len(frames) long. It
// moves data only — the caller charges.
func (p *Pager) viewRunThrough(first PageID, frames []*frame, epoch uint64, bufs [][]byte) error {
	n := len(frames)
	clear(frames)
	if p.ov.active() {
		for i := 0; i < n; i++ {
			frames[i] = p.ov.view(first+PageID(i), epoch)
		}
		if p.pool != nil {
			// Probe the pool only for the gaps between overlay hits, so a
			// stale base image never shadows an overlay version.
			for i := 0; i < n; {
				if frames[i] != nil {
					i++
					continue
				}
				j := i + 1
				for j < n && frames[j] == nil {
					j++
				}
				p.pool.viewRun(first+PageID(i), frames[i:j])
				i = j
			}
		}
	} else if p.pool != nil {
		p.pool.viewRun(first, frames)
	}
	for i := 0; i < n; {
		if frames[i] != nil {
			i++
			continue
		}
		j := i + 1
		for j < n && frames[j] == nil {
			j++
		}
		if err := p.fetchRun(first+PageID(i), frames[i:j], bufs); err != nil {
			for k, f := range frames {
				if f != nil {
					f.Release()
					frames[k] = nil
				}
			}
			return err
		}
		i = j
	}
	return nil
}

// fetchRun reads len(frames) consecutive pages starting at first from disk
// into frames off the freelist — one disk call, its buffer list built in
// bufs — and registers them with the pool. A MemDisk's pages are not read
// but lent: each frame is a header over the disk's own immutable image. On
// error frames is left nil-filled.
func (p *Pager) fetchRun(first PageID, frames []*frame, bufs [][]byte) error {
	bufs = bufs[:len(frames)]
	if p.mem != nil {
		if err := p.mem.lendRun(first, bufs); err != nil {
			return err
		}
		for i := range frames {
			frames[i] = p.free.frameOf(first+PageID(i), bufs[i])
		}
	} else {
		for i := range frames {
			frames[i] = p.free.get(first + PageID(i))
			bufs[i] = frames[i].data
		}
		if err := p.disk.ReadRun(first, bufs); err != nil {
			for i, f := range frames {
				f.Release()
				frames[i] = nil
			}
			return err
		}
	}
	if p.pool != nil {
		for i, f := range frames {
			frames[i] = p.pool.insert(f)
		}
	}
	return nil
}

// addStats folds one query context's activity into the cumulative totals,
// so that Pager.Stats equals the sum of every reader's reported activity.
func (p *Pager) addStats(d Stats) {
	p.mu.Lock()
	p.stats = p.stats.Add(d)
	p.mu.Unlock()
}

// ReadRun implements PageReader as a one-shot query: a fresh context at the
// current epoch reads the run and publishes what it charged to the totals.
func (p *Pager) ReadRun(first, last PageID, fn func(id PageID, page []byte) bool) error {
	qc := p.BeginQuery()
	err := qc.ReadRun(first, last, fn)
	qc.Stats()
	qc.Recycle()
	return err
}

// WritePage writes buf to page id. Writes are counted but not charged to the
// simulated read clock: index construction happens before the measured query
// phase, exactly as in the paper.
func (p *Pager) WritePage(id PageID, buf []byte) error {
	if err := p.disk.WritePage(id, buf); err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.Writes++
	p.mu.Unlock()
	if p.pool != nil {
		if p.mem != nil {
			// Lend the image the write installed, as a miss would.
			img := [1][]byte{}
			if err := p.mem.lendRun(id, img[:]); err != nil {
				return err
			}
			buf = img[0]
		}
		p.pool.update(id, buf)
	}
	return nil
}

// Alloc allocates a fresh page on the underlying disk.
func (p *Pager) Alloc() (PageID, error) {
	return p.disk.Alloc()
}

// Stats returns a snapshot of the accumulated counters: the sum of every
// query context's published activity and of the page writes.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// DropCache empties the shared buffer pool without touching the counters,
// modelling a cold start between queries.
func (p *Pager) DropCache() {
	if p.pool != nil {
		p.pool.drop()
	}
}

// PoolShardStats returns a snapshot of each buffer-pool shard's occupancy and
// probe counters, or nil when the pool is disabled. Shard i caches page ids
// with id & (shards-1) == i.
func (p *Pager) PoolShardStats() []PoolShardStats {
	if p.pool == nil {
		return nil
	}
	return p.pool.shardStats()
}

// Close releases the underlying disk when it holds external resources
// (FileDisk); in-memory disks make it a no-op.
func (p *Pager) Close() error {
	if c, ok := p.disk.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// SnapshotTo copies every page of the store as seen at the current epoch to
// dst, which must be empty, appending a chunk of up to runChunkPages pages
// with each write: overlaid pages are materialized from their newest overlay
// version, so the saved file is the live state, not the stale base. The copy
// reads the disk in runs and bypasses the pool and the cost accounting — it
// is a maintenance operation (saving a built database to a file), not part of
// a measured query.
func (p *Pager) SnapshotTo(dst *FileDisk) error {
	ps := p.disk.PageSize()
	if dst.PageSize() != ps {
		return fmt.Errorf("storage: snapshot page size mismatch: %d vs %d", dst.PageSize(), ps)
	}
	epoch := p.epoch.Load()
	n := p.disk.NumPages()
	chunk := make([]byte, runChunkPages*ps)
	bufs := make([][]byte, runChunkPages)
	for i := range bufs {
		bufs[i] = chunk[i*ps : (i+1)*ps]
	}
	for start := 0; start < n; start += runChunkPages {
		run := bufs[:min(runChunkPages, n-start)]
		if err := p.disk.ReadRun(PageID(start), run); err != nil {
			return err
		}
		for i, buf := range run {
			if f := p.ov.view(PageID(start+i), epoch); f != nil {
				copy(buf, f.data)
				f.Release()
			}
		}
		did, err := dst.Append(chunk[:len(run)*ps])
		if err != nil {
			return err
		}
		if did != PageID(start) {
			return fmt.Errorf("storage: snapshot destination not empty (page %d became %d)", start, did)
		}
	}
	return nil
}

// QueryCtx is the per-query execution context: one query's own Stats, its own
// sequential-read clock, and a cold private view of the buffer pool, reading
// page data through the shared pool. Every query accounts exactly as if it
// ran alone against a freshly dropped cache — the paper's measurement model —
// no matter how many queries run concurrently.
//
// A QueryCtx is owned by one goroutine. The parallel refinement step gives
// each worker its own child context via Fork and folds the children back, in
// item order, with Merge, so the accounting is the one the items would have
// made one after another on the parent. Contexts are pooled: BeginQuery and
// Fork draw from the pool, Recycle returns one to it.
type QueryCtx struct {
	pager    *Pager
	stats    Stats
	lastPage PageID // last page this query read from disk, for seq detection
	// firstPage is the first page it read, which Merge re-classifies.
	firstPage PageID

	// epoch is the MVCC snapshot this query reads: every page resolves to
	// the newest overlay version at or below it. pinned records whether this
	// context holds the pin keeping that epoch's versions alive (forked
	// worker contexts ride their parent's pin).
	epoch  uint64
	pinned bool

	// seen is the accounting-only private pool: the pages this query would
	// find cached had it run alone against a cold pool of the pager's
	// capacity. Unused when the pool is disabled (poolSize 0).
	seen pageLRU

	// flushed is the prefix of stats already folded into the pager totals.
	// Accounting is accumulated lock-free in this context and published to
	// the shared totals only by Stats (and absorbed by Merge), so the hot
	// read path takes no per-page accounting lock.
	flushed Stats

	// runBufs is ReadRun's scratch: the buffer list of a miss run's disk read.
	runBufs [runChunkPages][]byte

	// tb is the query's trace builder, or nil when tracing is off. Spans are
	// charged by snapshotting stats at phase boundaries (BeginSpan/EndSpan),
	// never per page, so the read path above is identical either way.
	tb *obs.TraceBuilder
}

// BeginQuery returns a fresh execution context for one query, pinned to the
// pager's current epoch so a concurrently committed update batch cannot
// change what this query reads.
func (p *Pager) BeginQuery() *QueryCtx {
	for {
		e := p.epoch.Load()
		if p.ov.pin(e) {
			return p.newQueryCtx(e, true)
		}
		// The epoch moved below the compaction low-water mark between the
		// load and the pin — an update batch committed in the window. Re-read
		// and retry; the loop terminates because commits are finite.
	}
}

// BeginQueryAt returns an execution context pinned to an explicit epoch — the
// snapshot-read entry point. It fails when the epoch has been compacted away
// (no pin held it when a later update batch committed).
func (p *Pager) BeginQueryAt(epoch uint64) (*QueryCtx, bool) {
	if !p.ov.pin(epoch) {
		return nil, false
	}
	return p.newQueryCtx(epoch, true), true
}

// queryCtxPool holds recycled query contexts, each with the storage of its
// private page set, so a query neither allocates a context nor regrows a map
// for the pages it reads.
var queryCtxPool = sync.Pool{New: func() any { return new(QueryCtx) }}

// maxPooledSeen bounds the page set a recycled context keeps: past it the set
// is dropped rather than pooled, so one huge scan does not leave every later
// query clearing a map sized for it.
const maxPooledSeen = 4096

func (p *Pager) newQueryCtx(epoch uint64, pinned bool) *QueryCtx {
	qc := queryCtxPool.Get().(*QueryCtx)
	qc.pager, qc.lastPage, qc.epoch, qc.pinned = p, InvalidPage, epoch, pinned
	qc.seen.reset(p.poolSize)
	return qc
}

// Recycle ends the context's life: it drops the epoch pin, as Release does,
// and returns the context to the pool BeginQuery and Fork draw from. Call it
// once the context's activity has been taken — published by Stats, merged
// into its parent, or abandoned on an error — and never touch the context
// again, Release included.
func (qc *QueryCtx) Recycle() {
	qc.Release()
	seen := qc.seen
	if len(seen.nodes) > maxPooledSeen {
		seen = pageLRU{}
	}
	*qc = QueryCtx{seen: seen}
	queryCtxPool.Put(qc)
}

// pageLRU is a set of page ids in recency order, for QueryCtx's private pool
// view: the nodes of the recency list live in one slice and link by index, so
// remembering a page costs no allocation beyond the slice's and the map's own
// amortized growth, which a pooled context keeps. A capacity of zero is the
// disabled pool.
type pageLRU struct {
	slot       map[PageID]int32 // page id → index into nodes
	nodes      []lruNode
	head, tail int32 // most and least recently used; meaningless while empty
	capacity   int   // the most pages the set remembers
}

// reset empties the set for a new query remembering up to capacity pages,
// keeping the storage of the last one.
func (l *pageLRU) reset(capacity int) {
	clear(l.slot)
	l.nodes = l.nodes[:0]
	l.capacity = capacity
	if capacity > 0 && l.slot == nil {
		l.slot = make(map[PageID]int32)
	}
}

type lruNode struct {
	id         PageID
	prev, next int32 // towards head, towards tail
}

// touch reports whether id is in the set, making it the most recent if so.
func (l *pageLRU) touch(id PageID) bool {
	i, ok := l.slot[id]
	if !ok {
		return false
	}
	if i != l.head {
		n := &l.nodes[i]
		l.nodes[n.prev].next = n.next
		if i == l.tail {
			l.tail = n.prev
		} else {
			l.nodes[n.next].prev = n.prev
		}
		n.next = l.head
		l.nodes[l.head].prev = i
		l.head = i
	}
	return true
}

// add inserts id, which must not be in the set, as the most recent; a set
// already holding capacity pages first forgets its least recent one, whose
// node the newcomer takes over.
func (l *pageLRU) add(id PageID) {
	i := int32(len(l.nodes))
	if int(i) < l.capacity {
		l.nodes = append(l.nodes, lruNode{})
	} else {
		i = l.tail
		delete(l.slot, l.nodes[i].id)
		l.tail = l.nodes[i].prev
	}
	l.slot[id] = i
	if len(l.nodes) == 1 { // the first page, or a capacity of one
		l.nodes[0].id, l.head, l.tail = id, 0, 0
		return
	}
	l.nodes[i] = lruNode{id: id, next: l.head}
	l.nodes[l.head].prev = i
	l.head = i
}

// PageSize returns the underlying pager's page size.
func (qc *QueryCtx) PageSize() int { return qc.pager.PageSize() }

// ReadRun implements PageReader: page data comes from the overlays, the
// shared pool or the disk, fetched a chunk at a time, while each page is
// charged to this query's private accounting in page order just before fn
// sees it — an early stop leaves the rest of the run uncharged, and a failed
// fetch charges none of its chunk. The accounting is published to the pager's
// cumulative totals when Stats is called.
func (qc *QueryCtx) ReadRun(first, last PageID, fn func(id PageID, page []byte) bool) error {
	if first > last {
		return nil
	}
	var frames [runChunkPages]*frame
	for start := first; ; start += runChunkPages {
		n := min(int(last-start)+1, runChunkPages)
		if err := qc.pager.viewRunThrough(start, frames[:n], qc.epoch, qc.runBufs[:]); err != nil {
			return err
		}
		stop := false
		for i, f := range frames[:n] {
			if !stop {
				id := start + PageID(i)
				qc.chargeRead(id)
				stop = !fn(id, f.data)
			}
			f.Release()
			frames[i] = nil
		}
		if stop || start+PageID(n-1) == last {
			return nil
		}
	}
}

// chargeRead charges one page access to this query's private accounting:
// cache hit on a within-query revisit, sequential or random disk read
// otherwise. The charge depends only on this context's own history (seen set
// and sequential clock), never on shared pool residency — that is what keeps
// per-query accounting independent of how many queries run concurrently and
// of how the bytes were obtained (run read, or a batch's shared fetch).
func (qc *QueryCtx) chargeRead(id PageID) {
	if qc.seen.capacity > 0 && qc.seen.touch(id) {
		qc.stats.CacheHits++
		return
	}
	qc.stats.Reads++
	if qc.lastPage == InvalidPage {
		qc.firstPage = id
	}
	if qc.lastPage != InvalidPage && id == qc.lastPage+1 {
		qc.stats.SeqReads++
		qc.stats.SimElapsed += qc.pager.model.SequentialRead
	} else {
		qc.stats.RandReads++
		qc.stats.SimElapsed += qc.pager.model.RandomRead
	}
	qc.lastPage = id
	if qc.seen.capacity > 0 {
		qc.seen.add(id)
	}
}

// ChargePage charges one page access to this query's private accounting
// without moving any data. It is the attribution half of a shared (batched)
// fetch: the bytes come from one physical run read serving a whole batch,
// while every member query charges exactly the page sequence its solo
// execution would have read — same ids, same order — so the per-query
// statistics stay byte-identical to a solo run no matter how the batch
// coalesced the I/O.
func (qc *QueryCtx) ChargePage(id PageID) { qc.chargeRead(id) }

// ChargeRun charges the pages [first, last] in ascending order, exactly as a
// ReadRun over the same range would, without moving any data. See ChargePage.
func (qc *QueryCtx) ChargeRun(first, last PageID) {
	for id := first; id <= last; id++ {
		qc.chargeRead(id)
	}
}

// Stats returns this query's accumulated activity, including any merged
// worker contexts, and publishes the not-yet-published part to the pager's
// cumulative totals. Every query path ends by reporting its I/O through
// Stats, so at quiescence Pager.Stats equals the sum of all reported
// per-query Stats. (A context abandoned mid-query — an error return before
// Stats — keeps its partial activity out of the totals, which is exactly
// what keeps that sum exact.)
func (qc *QueryCtx) Stats() Stats {
	if d := qc.stats.Sub(qc.flushed); d != (Stats{}) {
		qc.pager.addStats(d)
		qc.flushed = qc.stats
	}
	qc.Release()
	return qc.stats
}

// Epoch returns the MVCC snapshot this context reads.
func (qc *QueryCtx) Epoch() uint64 { return qc.epoch }

// Release drops this context's epoch pin without publishing its stats — for
// contexts whose activity is folded elsewhere (a batch's physical context) or
// abandoned on an error path. Stats releases implicitly; calling both, or
// Release twice, is harmless.
func (qc *QueryCtx) Release() {
	if qc.pinned {
		qc.pager.ov.unpin(qc.epoch)
		qc.pinned = false
	}
}

// LocalStats returns this query's accumulated activity without publishing it
// to the pager's cumulative totals — a boundary snapshot for phase
// attribution, where the final Stats call still publishes every increment
// exactly once.
func (qc *QueryCtx) LocalStats() Stats { return qc.stats }

// AttachTrace ties a trace builder (possibly nil) to this context so the
// query pipeline can mark phase boundaries with BeginSpan/EndSpan.
func (qc *QueryCtx) AttachTrace(tb *obs.TraceBuilder) { qc.tb = tb }

// BeginSpan opens a trace span for phase ph at the current private-stats
// boundary. A no-op without an attached trace.
func (qc *QueryCtx) BeginSpan(ph obs.Phase) {
	if qc.tb != nil {
		qc.tb.BeginSpan(ph, qc.stats.PageCounts())
	}
}

// EndSpan closes the open trace span, charging it the page activity since its
// BeginSpan. A no-op without an attached trace.
func (qc *QueryCtx) EndSpan() {
	if qc.tb != nil {
		qc.tb.EndSpan(qc.stats.PageCounts())
	}
}

// Fork returns a child context for one worker of a parallel refinement step:
// fresh stats and a fresh sequential-read clock over the same pager, reading
// at the parent's epoch. The child holds no pin of its own — the parent's
// pin outlives it, since every worker is merged back before the parent
// publishes. It comes from the context pool; Recycle it once merged.
func (qc *QueryCtx) Fork() *QueryCtx { return qc.pager.newQueryCtx(qc.epoch, false) }

// Merge folds a finished child context's activity into this query's stats as
// if the child's reads had followed the parent's: the child's first read,
// charged at random cost on its fresh clock, is sequential when it continues
// the page the parent read last — so children merged in item order account
// exactly as the items run one after another on the parent. Whatever the
// child already published to the pager totals is remembered as published here
// too, so the parent's final Stats publishes each increment exactly once.
func (qc *QueryCtx) Merge(child *QueryCtx) {
	d := child.stats
	if child.lastPage != InvalidPage {
		if qc.lastPage != InvalidPage && child.firstPage == qc.lastPage+1 {
			d.RandReads--
			d.SeqReads++
			d.SimElapsed += qc.pager.model.SequentialRead - qc.pager.model.RandomRead
		}
		qc.lastPage = child.lastPage
	}
	qc.stats = qc.stats.Add(d)
	qc.flushed = qc.flushed.Add(child.flushed)
}

var (
	_ PageReader = (*Pager)(nil)
	_ PageReader = (*QueryCtx)(nil)
)
