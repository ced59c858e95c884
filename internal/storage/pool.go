package storage

import (
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

// framePool recycles frames together with their page-size buffers. A frame
// returns here when its last reference is released — an evicted page nobody is
// reading any more, most of the time — and the next miss takes it over, so a
// steady-state query workload reads pages without allocating. Frames travel as
// pointers: nothing is boxed on the way in or out.
//
// A pool of size zero recycles headers only: their frames own no buffer and
// lend a MemDisk's own immutable page image instead (see MemDisk).
type framePool struct {
	size int
	pool sync.Pool
}

func newFramePool(size int) *framePool {
	return &framePool{size: size}
}

// get returns a frame nobody else holds (one reference, the caller's) whose
// buffer awaits page id's image — or, from a header pool, whose data awaits
// the image it lends.
func (fp *framePool) get(id PageID) *frame {
	f, ok := fp.pool.Get().(*frame)
	if !ok {
		f = &frame{data: make([]byte, fp.size), free: fp}
	}
	f.id = id
	f.refs.Store(1)
	return f
}

// frameOf returns a frame holding img as page id's image: img itself in a
// header, or a copy of it in a frame's own buffer.
func (fp *framePool) frameOf(id PageID, img []byte) *frame {
	f := fp.get(id)
	if fp.size == 0 {
		f.data = img
	} else {
		copy(f.data, img)
	}
	return f
}

// frame is one immutable page image shared between the buffer pool and any
// number of concurrent readers. The image is never modified in place — a
// write to a cached page swaps in a fresh frame — so readers can use data
// without copying or locking. References are counted: the pool holds one
// while the frame is resident, and every reader it is handed to one more.
type frame struct {
	id   PageID
	data []byte
	refs atomic.Int32
	free *framePool // recycling destination; nil for one-off frames
	// prev and next link a resident frame into its shard's recency list,
	// towards the most and the least recently used; the shard's mutex guards
	// them.
	prev, next *frame
}

// Retain adds a reference, for handing the frame to another owner.
func (f *frame) Retain() { f.refs.Add(1) }

// Release drops one reference. When the last owner (pool residency included)
// lets go, the frame and its buffer return to the pager's freelist.
func (f *frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("storage: frame released more often than retained")
	}
	if f.free != nil {
		if f.free.size == 0 {
			f.data = nil // a recycled header does not keep its image alive
		}
		f.free.pool.Put(f)
	}
}

// newFrame returns a one-off frame over data, owned solely by the caller (one
// reference) and never recycled.
func newFrame(id PageID, data []byte) *frame {
	f := &frame{id: id, data: data}
	f.refs.Store(1)
	return f
}

// poolShard is one independently locked LRU over a slice of the page-id
// space. The recency list runs through the frames themselves, circular
// through root: root.next is the most recently used frame, root.prev the
// least.
type poolShard struct {
	mu     sync.Mutex
	cap    int
	root   frame
	frames map[PageID]*frame
	hits   int64 // probes served from this shard
	misses int64 // probes that fell through to the disk
}

// reset empties the shard's map and list; the caller has dealt with the
// frames.
func (s *poolShard) reset() {
	s.root.prev, s.root.next = &s.root, &s.root
	s.frames = make(map[PageID]*frame)
}

// unlink takes f out of the recency list.
func (s *poolShard) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// pushFront makes f, which is not in the list, the most recently used.
func (s *poolShard) pushFront(f *frame) {
	f.prev, f.next = &s.root, s.root.next
	f.prev.next, f.next.prev = f, f
}

// hit returns resident frame f retained for one more owner, now the most
// recently used.
func (s *poolShard) hit(f *frame) *frame {
	if s.root.next != f {
		s.unlink(f)
		s.pushFront(f)
	}
	f.Retain()
	return f
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
// reference-counted LRU. Hits hand back a retained *frame under one shard
// mutex and zero copies.
type shardedPool struct {
	shards []poolShard
	mask   uint32
	free   *framePool
}

// newShardedPool builds a pool of the given capacity. shards is rounded down
// to a power of two no larger than the capacity (every shard must hold at
// least one frame); zero picks the default — a single shard for pools below
// minShardedPoolSize, whose global LRU eviction order is then exact, and
// poolShards otherwise. Frames come from the freelist one miss at a time: a
// pool costs what it holds, not what it may hold.
func newShardedPool(size, shards int, free *framePool) *shardedPool {
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
	sp := &shardedPool{shards: make([]poolShard, shards), mask: uint32(shards - 1), free: free}
	base, extra := size/shards, size%shards
	for i := range sp.shards {
		s := &sp.shards[i]
		s.cap = base
		if i < extra {
			s.cap++
		}
		s.reset()
	}
	return sp
}

func (sp *shardedPool) shard(id PageID) *poolShard {
	return &sp.shards[uint32(id)&sp.mask]
}

// viewRun is the pool's one probe: it looks up pages
// first..first+len(frames)-1 with one lock acquisition per shard, filling
// frames[i] with a retained frame or leaving it nil on a miss. Misses are left
// for the caller to fetch from disk in contiguous sub-runs.
func (sp *shardedPool) viewRun(first PageID, frames []*frame) {
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
			if f, ok := s.frames[first+PageID(i)]; ok {
				s.hits++
				frames[i] = s.hit(f)
			} else {
				s.misses++
			}
		}
		s.mu.Unlock()
	}
}

// insert makes f — the caller's own frame, holding its page's image — resident
// and returns it retained once more for the caller. If another goroutine
// inserted the page first, its frame wins and f goes back to the freelist —
// both hold the same disk image, so either is correct. A full shard first
// evicts its least recently used frames: the pool lets go of them, and one
// nobody is reading goes to the freelist for the next miss to take over.
func (sp *shardedPool) insert(f *frame) *frame {
	s := sp.shard(f.id)
	s.mu.Lock()
	if old, ok := s.frames[f.id]; ok {
		old = s.hit(old)
		s.mu.Unlock()
		f.Release()
		return old
	}
	for len(s.frames) >= s.cap {
		ev := s.root.prev
		s.unlink(ev)
		delete(s.frames, ev.id)
		ev.Release() // drop the pool's reference; readers may still hold theirs
	}
	f.Retain() // one for pool residency, one for the caller
	s.frames[f.id] = f
	s.pushFront(f)
	s.mu.Unlock()
	return f
}

// update refreshes an already-resident page after a write by swapping in a
// fresh frame holding img (see framePool.frameOf); readers of the old frame
// keep their immutable image. Absent pages are not inserted (writes happen
// during build, before the measured query phase).
func (sp *shardedPool) update(id PageID, img []byte) {
	s := sp.shard(id)
	s.mu.Lock()
	old, ok := s.frames[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	nf := sp.free.frameOf(id, img)
	// nf takes old's place in the recency list.
	nf.prev, nf.next = old.prev, old.next
	nf.prev.next, nf.next.prev = nf, nf
	old.prev, old.next = nil, nil
	s.frames[id] = nf
	s.mu.Unlock()
	old.Release()
}

// shardStats snapshots every shard's occupancy and probe counters.
func (sp *shardedPool) shardStats() []PoolShardStats {
	out := make([]PoolShardStats, len(sp.shards))
	for i := range sp.shards {
		s := &sp.shards[i]
		s.mu.Lock()
		out[i] = PoolShardStats{Cap: s.cap, Len: len(s.frames), Hits: s.hits, Misses: s.misses}
		s.mu.Unlock()
	}
	return out
}

// drop empties the pool, releasing the pool's reference on every frame.
func (sp *shardedPool) drop() {
	for si := range sp.shards {
		s := &sp.shards[si]
		s.mu.Lock()
		for f := s.root.next; f != &s.root; {
			next := f.next
			f.prev, f.next = nil, nil
			f.Release()
			f = next
		}
		s.reset()
		s.mu.Unlock()
	}
}
