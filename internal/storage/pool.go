package storage

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const (
	// poolShards is the shard count of large buffer pools. Shards partition
	// the page-id space (id & mask), so concurrent queries touching different
	// pages lock different shards.
	poolShards = 16
	// minShardedPoolSize is the capacity below which the pool stays single
	// sharded. Tiny pools — unit tests, deliberately cache-starved runs —
	// keep exact global LRU eviction order, and splitting a handful of frames
	// across shards would distort it for no contention win.
	minShardedPoolSize = 1024
)

// bufPool recycles page-size buffers. Frames return their buffer here when
// the last reference is released, so a steady-state query workload reads
// pages without allocating.
type bufPool struct {
	size int
	pool sync.Pool
}

func newBufPool(size int) *bufPool {
	return &bufPool{size: size}
}

func (bp *bufPool) get() []byte {
	if b, ok := bp.pool.Get().([]byte); ok {
		return b
	}
	return make([]byte, bp.size)
}

func (bp *bufPool) put(b []byte) {
	if cap(b) >= bp.size {
		bp.pool.Put(b[:bp.size]) //nolint:staticcheck // slice header boxing is far cheaper than a page alloc
	}
}

// Frame is one immutable page image shared between the buffer pool and any
// number of concurrent readers. The image is never modified in place — a
// write to a cached page swaps in a fresh frame — so readers can use Data
// without copying or locking. References are counted: the pool holds one
// while the frame is resident, and every view hands the caller one more.
type Frame struct {
	id   PageID
	data []byte
	refs atomic.Int32
	free *bufPool // buffer recycling destination; nil for one-off frames
}

// Data returns the page image. It is valid until Release and must not be
// modified.
func (f *Frame) Data() []byte { return f.data }

// Retain adds a reference, for handing the frame to another owner.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference. When the last owner (pool residency included)
// lets go, the page buffer returns to the pager's freelist.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("storage: Frame released more often than retained")
	}
	if f.free != nil {
		buf := f.data
		f.data = nil
		f.free.put(buf)
	}
}

// newFrame returns a frame owned solely by the caller (one reference).
func newFrame(id PageID, data []byte, free *bufPool) *Frame {
	f := &Frame{id: id, data: data, free: free}
	f.refs.Store(1)
	return f
}

// poolShard is one independently locked LRU over a slice of the page-id
// space.
type poolShard struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List               // front = most recently used; values are *Frame
	frames map[PageID]*list.Element // page id -> element in lru
	hits   int64                    // probes served from this shard
	misses int64                    // probes that fell through to the disk
}

// PoolShardStats is a snapshot of one buffer-pool shard: its capacity and
// occupancy in pages, and how its probes split between hits and misses.
type PoolShardStats struct {
	Cap    int
	Len    int
	Hits   int64
	Misses int64
}

// shardedPool is the shared buffer pool of a Pager: an N-way sharded,
// reference-counted LRU. Hits hand back a retained *Frame under one shard
// mutex and zero copies; the old single-mutex pool memcpyed a full page per
// get and put.
type shardedPool struct {
	shards []poolShard
	mask   uint32
	bufs   *bufPool
}

// newShardedPool builds a pool of the given capacity. shards is clamped to a
// power of two no larger than the capacity (every shard must hold at least
// one frame); pools below minShardedPoolSize use a single shard so their
// global LRU eviction order is exactly that of the pre-sharding pool.
func newShardedPool(size, shards int, bufs *bufPool) *shardedPool {
	if shards <= 0 {
		shards = poolShards
		if size < minShardedPoolSize {
			shards = 1
		}
	}
	for shards&(shards-1) != 0 {
		shards &= shards - 1 // round down to a power of two
	}
	for shards > size {
		shards >>= 1
	}
	if shards < 1 {
		shards = 1
	}
	sp := &shardedPool{shards: make([]poolShard, shards), mask: uint32(shards - 1), bufs: bufs}
	base, extra := size/shards, size%shards
	for i := range sp.shards {
		c := base
		if i < extra {
			c++
		}
		sp.shards[i] = poolShard{cap: c, lru: list.New(), frames: make(map[PageID]*list.Element)}
	}
	return sp
}

func (sp *shardedPool) shard(id PageID) *poolShard {
	return &sp.shards[uint32(id)&sp.mask]
}

// view returns a retained frame for page id, or nil on a miss.
func (sp *shardedPool) view(id PageID) *Frame {
	s := sp.shard(id)
	s.mu.Lock()
	el, ok := s.frames[id]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	s.hits++
	s.lru.MoveToFront(el)
	f := el.Value.(*Frame)
	f.Retain()
	s.mu.Unlock()
	return f
}

// viewRun probes pages first..first+len(frames)-1 with one lock acquisition
// per shard, filling frames[i] with a retained frame or leaving it nil on a
// miss. Misses are left for the caller to fetch from disk in contiguous
// sub-runs.
func (sp *shardedPool) viewRun(first PageID, frames []*Frame) {
	n := len(frames)
	nsh := len(sp.shards)
	for si := range sp.shards {
		// First run index landing in shard si, then stride by shard count.
		start := int((uint32(si) - uint32(first)) & sp.mask)
		if start >= n {
			continue
		}
		s := &sp.shards[si]
		s.mu.Lock()
		for i := start; i < n; i += nsh {
			if el, ok := s.frames[first+PageID(i)]; ok {
				s.hits++
				s.lru.MoveToFront(el)
				f := el.Value.(*Frame)
				f.Retain()
				frames[i] = f
			} else {
				s.misses++
			}
		}
		s.mu.Unlock()
	}
}

// insert takes ownership of data (a freelist buffer holding page id's image)
// and returns a retained frame for the page. If another goroutine inserted
// the page first, its frame wins and data returns to the freelist — both
// hold the same disk image, so either is correct.
func (sp *shardedPool) insert(id PageID, data []byte) *Frame {
	s := sp.shard(id)
	s.mu.Lock()
	if el, ok := s.frames[id]; ok {
		s.lru.MoveToFront(el)
		f := el.Value.(*Frame)
		f.Retain()
		s.mu.Unlock()
		sp.bufs.put(data)
		return f
	}
	for s.lru.Len() >= s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		ev := back.Value.(*Frame)
		delete(s.frames, ev.id)
		ev.Release() // drop the pool's reference; readers may still hold theirs
	}
	f := &Frame{id: id, data: data, free: sp.bufs}
	f.refs.Store(2) // one for pool residency, one for the caller
	s.frames[id] = s.lru.PushFront(f)
	s.mu.Unlock()
	return f
}

// get copies page id into buf and reports whether it was resident — the
// copying compatibility path behind Pager.ReadPage/QueryCtx.ReadPage.
func (sp *shardedPool) get(id PageID, buf []byte) bool {
	f := sp.view(id)
	if f == nil {
		return false
	}
	copy(buf, f.data)
	f.Release()
	return true
}

// update refreshes an already-resident page after a write by swapping in a
// fresh frame; readers of the old frame keep their immutable image. Absent
// pages are not inserted (writes happen during build, before the measured
// query phase).
func (sp *shardedPool) update(id PageID, buf []byte) {
	s := sp.shard(id)
	s.mu.Lock()
	el, ok := s.frames[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	old := el.Value.(*Frame)
	data := sp.bufs.get()
	copy(data, buf)
	nf := newFrame(id, data, sp.bufs)
	el.Value = nf
	s.mu.Unlock()
	old.Release()
}

// shardStats snapshots every shard's occupancy and probe counters.
func (sp *shardedPool) shardStats() []PoolShardStats {
	out := make([]PoolShardStats, len(sp.shards))
	for i := range sp.shards {
		s := &sp.shards[i]
		s.mu.Lock()
		out[i] = PoolShardStats{Cap: s.cap, Len: s.lru.Len(), Hits: s.hits, Misses: s.misses}
		s.mu.Unlock()
	}
	return out
}

// drop empties the pool, releasing the pool's reference on every frame.
func (sp *shardedPool) drop() {
	for si := range sp.shards {
		s := &sp.shards[si]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			el.Value.(*Frame).Release()
		}
		s.lru.Init()
		s.frames = make(map[PageID]*list.Element)
		s.mu.Unlock()
	}
}
