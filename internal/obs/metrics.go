package obs

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxMethods bounds the per-method counter table of a Metrics registry. The
// engine registers a handful of strategies; slots past the bound fall into
// the shared overflow behaviour of RegisterMethod.
const MaxMethods = 16

// histBuckets is the latency histogram resolution: bucket i counts queries
// with wall latency ≤ 1µs·2^i, the last bucket is unbounded (2^24 µs ≈ 16.8s
// covers everything the simulated clock produces).
const histBuckets = 26

// Histogram is a lock-free log₂ latency histogram. The zero value is ready
// to use.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNano.Add(int64(d))
	h.buckets[histBucketOf(d)].Add(1)
}

// histBucketOf maps a duration to its bucket index.
func histBucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for ≤1µs, else ⌈log₂(µs)⌉
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistBucket is one non-empty histogram bucket in a snapshot.
type HistBucket struct {
	// UpperBound is the bucket's inclusive latency ceiling (0 means the
	// bucket is the unbounded tail).
	UpperBound time.Duration `json:"upper_bound_ns"`
	Count      int64         `json:"count"`
}

// histUpperBound returns bucket i's ceiling, or 0 for the unbounded tail.
func histUpperBound(i int) time.Duration {
	if i == histBuckets-1 {
		return 0
	}
	return time.Microsecond << i
}

// MethodCounters is the per-strategy query accounting in a snapshot.
type MethodCounters struct {
	Method string `json:"method"`
	// Queries counts every finished query (including failed and canceled
	// ones).
	Queries int64 `json:"queries"`
	// Failures counts queries that returned a non-cancellation error.
	Failures int64 `json:"failures"`
	// Canceled counts queries that returned context.Canceled or
	// context.DeadlineExceeded.
	Canceled int64 `json:"canceled"`
}

// Metrics is the engine's cumulative metrics registry. All recording paths
// are atomic and allocation-free, so the registry can stay attached to every
// query without distorting what it measures; every Record* method is also a
// no-op on a nil receiver, mirroring the nil-tracer fast path.
//
// Method slots are registered once at index-build time (RegisterMethod) and
// passed back as plain ints, keeping the per-query path free of map lookups.
type Metrics struct {
	mu    sync.Mutex // guards names (registration only)
	names []string

	queries  [MaxMethods]atomic.Int64
	failures [MaxMethods]atomic.Int64
	canceled [MaxMethods]atomic.Int64

	latency Histogram

	// Pages read by kind, following the paper's two-step accounting: index
	// pages are the filter step's R*-tree reads, sidecar pages the packed
	// interval columns a sidecar-served filter scans, and cell pages the
	// refinement (or point-query decode) step's heap reads.
	indexPages   atomic.Int64
	sidecarPages atomic.Int64
	cellPages    atomic.Int64
	cacheHits    atomic.Int64
	simNano      atomic.Int64

	// Worker-pool accounting for parallel refinement sections: items
	// executed, summed busy time across workers, and the wall time of the
	// sections. Busy/wall is the achieved average concurrency.
	workerItems atomic.Int64
	workerBusy  atomic.Int64
	workerWall  atomic.Int64

	// Contour assembly (facade stage after a zero-width value query).
	contours    atomic.Int64
	contourNano atomic.Int64

	// Shared-scan batch accounting: how many batches ran, how many member
	// queries they carried (a log₂ size histogram), the physical page reads
	// the batches performed, and how many attributed page reads the
	// deduplication saved (Σ attributed = physical + saved).
	batches       atomic.Int64
	batchQueries  atomic.Int64
	batchSizes    [batchSizeBuckets]atomic.Int64
	batchPhysical atomic.Int64
	batchSaved    atomic.Int64

	// Admission-window queue accounting: groups by what let them start, the
	// member queries that waited in a group, and how long they waited.
	groupsBy       [numGroupReleases]atomic.Int64
	windowWaiters  atomic.Int64
	windowWaitNano atomic.Int64
	windowWaitMax  atomic.Int64

	// Live-update accounting: UpdateSamples batches applied, sample values
	// and cells they touched, pages written at commit (cell + sidecar
	// overlays plus fresh index pages), epochs retired by the storage plane
	// once no reader pinned them, and subfield regroup events (an update
	// batch that moved a partition's group boundaries, §3 cost drift).
	updateBatches      atomic.Int64
	updatesApplied     atomic.Int64
	updateCells        atomic.Int64
	updatePagesWritten atomic.Int64
	epochsRetired      atomic.Int64
	regroupEvents      atomic.Int64

	// Tiled-planner accounting: tiles eliminated by summary pruning (zero
	// pages read) and tiles actually scanned.
	tilesPruned  atomic.Int64
	tilesScanned atomic.Int64

	// Aggregate-tier accounting: approximate range-aggregate queries served
	// within their certified bound, and those that fell back to the exact
	// pipeline because the bound exceeded the caller's tolerance.
	aggQueries   atomic.Int64
	aggFallbacks atomic.Int64
}

// batchSizeBuckets is the batch-size histogram resolution: bucket i counts
// batches of size ≤ 2^i (2^16 member queries is far past any plausible
// admission window).
const batchSizeBuckets = 17

// batchSizeBucketOf maps a batch size to its bucket index.
func batchSizeBucketOf(size int) int {
	if size < 1 {
		size = 1
	}
	b := bits.Len64(uint64(size - 1)) // 0 for size 1, else ⌈log₂(size)⌉
	if b >= batchSizeBuckets {
		b = batchSizeBuckets - 1
	}
	return b
}

// BatchSizeBucket is one non-empty batch-size histogram bucket in a snapshot.
type BatchSizeBucket struct {
	// MaxSize is the bucket's inclusive size ceiling.
	MaxSize int64 `json:"max_size"`
	Count   int64 `json:"count"`
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// RegisterMethod returns the counter slot for a strategy name, creating it on
// first use. Registration is idempotent per name and safe for concurrent use.
// It returns -1 — a slot every Record* method ignores — when m is nil or the
// table is full.
func (m *Metrics) RegisterMethod(name string) int {
	if m == nil {
		return -1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	if len(m.names) >= MaxMethods {
		return -1
	}
	m.names = append(m.names, name)
	return len(m.names) - 1
}

// RecordQuery counts one finished query on the given method slot and folds
// its wall latency into the histogram.
func (m *Metrics) RecordQuery(slot int, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.latency.Observe(d)
	if slot < 0 || slot >= MaxMethods {
		return
	}
	m.queries[slot].Add(1)
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.canceled[slot].Add(1)
	} else {
		m.failures[slot].Add(1)
	}
}

// RecordPages attributes a finished query's page accesses: indexReads from
// the filter step's R*-tree search, sidecarReads from interval-sidecar
// scans, cellReads from the refinement/decode step's heap pages, plus the
// query's cache hits and simulated disk time.
func (m *Metrics) RecordPages(indexReads, sidecarReads, cellReads, cacheHits int, sim time.Duration) {
	if m == nil {
		return
	}
	m.indexPages.Add(int64(indexReads))
	m.sidecarPages.Add(int64(sidecarReads))
	m.cellPages.Add(int64(cellReads))
	m.cacheHits.Add(int64(cacheHits))
	m.simNano.Add(int64(sim))
}

// RecordWorkers folds one parallel section into the worker-pool accounting:
// its items — the blocks of page runs of a fanned-out refinement, or the
// residual tiles of a tiled scatter — their summed busy time and the
// section's wall time.
func (m *Metrics) RecordWorkers(items int, busy, wall time.Duration) {
	if m == nil {
		return
	}
	m.workerItems.Add(int64(items))
	m.workerBusy.Add(int64(busy))
	m.workerWall.Add(int64(wall))
}

// RecordBatch folds one shared-scan batch into the batch accounting: its
// member-query count, the physical (deduplicated) page reads the batch
// performed, and the attributed page reads the coalescing saved.
func (m *Metrics) RecordBatch(size int, physicalReads, savedReads int64) {
	if m == nil {
		return
	}
	m.batches.Add(1)
	m.batchQueries.Add(int64(size))
	m.batchSizes[batchSizeBucketOf(size)].Add(1)
	m.batchPhysical.Add(physicalReads)
	m.batchSaved.Add(savedReads)
}

// GroupRelease says what let a group of windowed queries start executing.
type GroupRelease uint8

const (
	// ReleaseFreeSlot: an execution slot was free on arrival — a group of
	// one that never waited.
	ReleaseFreeSlot GroupRelease = iota
	// ReleaseHandover: every slot was busy; a finishing group handed its
	// slot to the pending one.
	ReleaseHandover
	// ReleaseExpiry: every slot stayed busy for the whole window.
	ReleaseExpiry
	numGroupReleases
)

// RecordGroup folds one released admission-window group into the queue
// accounting: what released it, its member count, and — for a group that
// waited — the members' summed wait and the longest one (its leader's).
func (m *Metrics) RecordGroup(how GroupRelease, members int, waitSum, waitMax time.Duration) {
	if m == nil {
		return
	}
	m.groupsBy[how].Add(1)
	if how == ReleaseFreeSlot {
		return
	}
	m.windowWaiters.Add(int64(members))
	m.windowWaitNano.Add(int64(waitSum))
	for {
		old := m.windowWaitMax.Load()
		if int64(waitMax) <= old || m.windowWaitMax.CompareAndSwap(old, int64(waitMax)) {
			return
		}
	}
}

// RecordUpdate folds one applied UpdateSamples batch into the live-update
// accounting: how many sample values it changed, how many cells it touched,
// how many pages it wrote at commit, how many old epochs the commit retired,
// and whether it moved subfield group boundaries.
func (m *Metrics) RecordUpdate(samples, cells int, pagesWritten, retired int64, regrouped bool) {
	if m == nil {
		return
	}
	m.updateBatches.Add(1)
	m.updatesApplied.Add(int64(samples))
	m.updateCells.Add(int64(cells))
	m.updatePagesWritten.Add(pagesWritten)
	m.epochsRetired.Add(retired)
	if regrouped {
		m.regroupEvents.Add(1)
	}
}

// RecordTiles folds one tiled query's planning outcome into the tile
// accounting: how many tiles the summary prune eliminated and how many were
// scanned (pruned + scanned = the field's tile count).
func (m *Metrics) RecordTiles(pruned, scanned int) {
	if m == nil {
		return
	}
	m.tilesPruned.Add(int64(pruned))
	m.tilesScanned.Add(int64(scanned))
}

// RecordAggregate counts one range-aggregate query, noting whether the
// summary's certified bound exceeded the caller's tolerance and the exact
// pipeline answered instead.
func (m *Metrics) RecordAggregate(fallback bool) {
	if m == nil {
		return
	}
	m.aggQueries.Add(1)
	if fallback {
		m.aggFallbacks.Add(1)
	}
}

// RecordContour counts one isoline assembly and its duration.
func (m *Metrics) RecordContour(d time.Duration) {
	if m == nil {
		return
	}
	m.contours.Add(1)
	m.contourNano.Add(int64(d))
}

// Snapshot is a point-in-time copy of a Metrics registry, safe to retain and
// marshal: its JSON tags are the wire contract of the serving tier's /metrics
// (every duration an integer-nanosecond _ns key), so a new counter is declared
// here once, beside its atomic in Metrics and its load in Snapshot().
type Snapshot struct {
	// Methods carries the per-strategy counters in registration order.
	Methods []MethodCounters `json:"methods,omitempty"`
	// Queries is the total query count across methods (the latency
	// histogram's sample count).
	Queries int64 `json:"queries"`
	// LatencySum is total wall time across all queries; Latency holds the
	// histogram's non-empty buckets; LatencyP50/P95 are bucket-resolution
	// upper-bound estimates (0 when no queries ran).
	LatencySum time.Duration `json:"latency_sum_ns"`
	Latency    []HistBucket  `json:"latency,omitempty"`
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	// Pages read by kind, plus cache hits and the simulated disk clock.
	IndexPagesRead   int64         `json:"index_pages_read"`
	SidecarPagesRead int64         `json:"sidecar_pages_read"`
	CellPagesRead    int64         `json:"cell_pages_read"`
	CacheHits        int64         `json:"cache_hits"`
	SimElapsed       time.Duration `json:"sim_elapsed_ns"`
	// Worker-pool utilization: WorkerItems counts the items the fanned-out
	// refinement sections ran — blocks of page runs, or residual tiles — and
	// WorkerConcurrency = busy / wall is their achieved average parallelism
	// (0 when none ran).
	WorkerItems       int64         `json:"worker_items"`
	WorkerBusy        time.Duration `json:"worker_busy_ns"`
	WorkerWall        time.Duration `json:"worker_wall_ns"`
	WorkerConcurrency float64       `json:"worker_concurrency"`
	// Contour assemblies and their cumulative duration.
	ContourAssemblies int64         `json:"contour_assemblies"`
	ContourTime       time.Duration `json:"contour_time_ns"`
	// Shared-scan batches: Batches/BatchQueries count executed batches and
	// their member queries, BatchSizes holds the non-empty size-histogram
	// buckets, BatchPhysicalPages is the deduplicated reads the batches
	// performed, and CoalescedPagesSaved the attributed reads the sharing
	// avoided (attributed total = physical + saved).
	Batches             int64             `json:"batches"`
	BatchQueries        int64             `json:"batch_queries"`
	BatchSizes          []BatchSizeBucket `json:"batch_sizes,omitempty"`
	BatchPhysicalPages  int64             `json:"batch_physical_pages"`
	CoalescedPagesSaved int64             `json:"coalesced_pages_saved"`
	// Admission-window queue (BatchWindow): groups that started at once on a
	// free execution slot (one query each, no wait), on a slot a finishing
	// group handed over, and at window expiry with every slot still busy;
	// WindowWaiters counts the member queries of the latter two kinds,
	// WindowWaitSum their summed wait for a slot and WindowWaitMax the longest
	// single wait. Mostly free-slot groups: the engine keeps up and any queue
	// is upstream of it; expiries: the engine is saturated.
	GroupsFreeSlot int64         `json:"groups_free_slot"`
	GroupsHandover int64         `json:"groups_handover"`
	GroupsExpired  int64         `json:"groups_expired"`
	WindowWaiters  int64         `json:"window_waiters"`
	WindowWaitSum  time.Duration `json:"window_wait_sum_ns"`
	WindowWaitMax  time.Duration `json:"window_wait_max_ns"`
	// Live updates: UpdateBatches counts applied UpdateSamples calls,
	// UpdatesApplied the sample values they changed, UpdateCellsTouched the
	// cells whose records were patched, UpdatePagesWritten the pages the
	// commits wrote, EpochsRetired the storage epochs compacted away after
	// their last reader unpinned, and RegroupEvents the update batches that
	// moved subfield group boundaries.
	UpdateBatches      int64 `json:"update_batches"`
	UpdatesApplied     int64 `json:"updates_applied"`
	UpdateCellsTouched int64 `json:"update_cells_touched"`
	UpdatePagesWritten int64 `json:"update_pages_written"`
	EpochsRetired      int64 `json:"epochs_retired"`
	RegroupEvents      int64 `json:"regroup_events"`
	// Tiled planner: TilesPruned tiles were eliminated by (min, max) / MBR
	// summaries without reading a page; TilesScanned ran their per-tile
	// pipeline.
	TilesPruned  int64 `json:"tiles_pruned"`
	TilesScanned int64 `json:"tiles_scanned"`
	// Aggregate tier: AggregateQueries counts approximate range-aggregate
	// answers, AggregateFallbacks the subset the exact pipeline had to serve
	// because the certified bound exceeded the caller's tolerance.
	AggregateQueries   int64 `json:"aggregate_queries"`
	AggregateFallbacks int64 `json:"aggregate_fallbacks"`
}

// Snapshot returns a consistent-enough copy for reporting: counters are read
// atomically, but concurrent recording may skew sums by in-flight queries.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	names := append([]string(nil), m.names...)
	m.mu.Unlock()
	s := Snapshot{
		Queries:             m.latency.count.Load(),
		LatencySum:          time.Duration(m.latency.sumNano.Load()),
		IndexPagesRead:      m.indexPages.Load(),
		SidecarPagesRead:    m.sidecarPages.Load(),
		CellPagesRead:       m.cellPages.Load(),
		CacheHits:           m.cacheHits.Load(),
		SimElapsed:          time.Duration(m.simNano.Load()),
		WorkerItems:         m.workerItems.Load(),
		WorkerBusy:          time.Duration(m.workerBusy.Load()),
		WorkerWall:          time.Duration(m.workerWall.Load()),
		ContourAssemblies:   m.contours.Load(),
		ContourTime:         time.Duration(m.contourNano.Load()),
		Batches:             m.batches.Load(),
		BatchQueries:        m.batchQueries.Load(),
		BatchPhysicalPages:  m.batchPhysical.Load(),
		CoalescedPagesSaved: m.batchSaved.Load(),
		GroupsFreeSlot:      m.groupsBy[ReleaseFreeSlot].Load(),
		GroupsHandover:      m.groupsBy[ReleaseHandover].Load(),
		GroupsExpired:       m.groupsBy[ReleaseExpiry].Load(),
		WindowWaiters:       m.windowWaiters.Load(),
		WindowWaitSum:       time.Duration(m.windowWaitNano.Load()),
		WindowWaitMax:       time.Duration(m.windowWaitMax.Load()),
		UpdateBatches:       m.updateBatches.Load(),
		UpdatesApplied:      m.updatesApplied.Load(),
		UpdateCellsTouched:  m.updateCells.Load(),
		UpdatePagesWritten:  m.updatePagesWritten.Load(),
		EpochsRetired:       m.epochsRetired.Load(),
		RegroupEvents:       m.regroupEvents.Load(),
		TilesPruned:         m.tilesPruned.Load(),
		TilesScanned:        m.tilesScanned.Load(),
		AggregateQueries:    m.aggQueries.Load(),
		AggregateFallbacks:  m.aggFallbacks.Load(),
	}
	for i := 0; i < batchSizeBuckets; i++ {
		if c := m.batchSizes[i].Load(); c > 0 {
			s.BatchSizes = append(s.BatchSizes, BatchSizeBucket{MaxSize: 1 << i, Count: c})
		}
	}
	for i, n := range names {
		s.Methods = append(s.Methods, MethodCounters{
			Method:   n,
			Queries:  m.queries[i].Load(),
			Failures: m.failures[i].Load(),
			Canceled: m.canceled[i].Load(),
		})
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = m.latency.buckets[i].Load()
		if counts[i] > 0 {
			s.Latency = append(s.Latency, HistBucket{UpperBound: histUpperBound(i), Count: counts[i]})
		}
	}
	s.LatencyP50 = quantile(counts[:], s.Queries, 0.50)
	s.LatencyP95 = quantile(counts[:], s.Queries, 0.95)
	if s.WorkerWall > 0 {
		s.WorkerConcurrency = float64(s.WorkerBusy) / float64(s.WorkerWall)
	}
	return s
}

// quantile returns the upper bound of the bucket where the q-quantile falls
// (0 when the histogram is empty; the tail bucket reports the largest finite
// bound).
func quantile(counts []int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if ub := histUpperBound(i); ub != 0 {
				return ub
			}
			return time.Microsecond << (histBuckets - 2)
		}
	}
	return time.Microsecond << (histBuckets - 2)
}

// String renders the snapshot as an aligned text table (the fieldbench
// -metrics dump).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries: %d  (p50 ≤ %v, p95 ≤ %v, total wall %v)\n",
		s.Queries, s.LatencyP50, s.LatencyP95, s.LatencySum.Round(time.Microsecond))
	for _, mc := range s.Methods {
		fmt.Fprintf(&b, "  %-12s queries=%-6d failures=%-4d canceled=%d\n",
			mc.Method, mc.Queries, mc.Failures, mc.Canceled)
	}
	fmt.Fprintf(&b, "pages: index=%d sidecar=%d cell=%d hits=%d sim=%v\n",
		s.IndexPagesRead, s.SidecarPagesRead, s.CellPagesRead, s.CacheHits, s.SimElapsed.Round(time.Microsecond))
	if s.WorkerItems > 0 {
		fmt.Fprintf(&b, "workers: items=%d busy=%v wall=%v concurrency=%.2f\n",
			s.WorkerItems, s.WorkerBusy.Round(time.Microsecond),
			s.WorkerWall.Round(time.Microsecond), s.WorkerConcurrency)
	}
	if s.ContourAssemblies > 0 {
		fmt.Fprintf(&b, "contours: assemblies=%d time=%v\n",
			s.ContourAssemblies, s.ContourTime.Round(time.Microsecond))
	}
	if s.Batches > 0 {
		fmt.Fprintf(&b, "batches: %d (queries=%d physical=%d saved=%d)\n",
			s.Batches, s.BatchQueries, s.BatchPhysicalPages, s.CoalescedPagesSaved)
		for _, bb := range s.BatchSizes {
			fmt.Fprintf(&b, "  size ≤%-6d %d\n", bb.MaxSize, bb.Count)
		}
	}
	if s.GroupsFreeSlot+s.GroupsHandover+s.GroupsExpired > 0 {
		var mean time.Duration
		if s.WindowWaiters > 0 {
			mean = s.WindowWaitSum / time.Duration(s.WindowWaiters)
		}
		fmt.Fprintf(&b, "window: free-slot=%d handover=%d expired=%d waiters=%d wait mean=%v max=%v\n",
			s.GroupsFreeSlot, s.GroupsHandover, s.GroupsExpired, s.WindowWaiters,
			mean.Round(time.Microsecond), s.WindowWaitMax.Round(time.Microsecond))
	}
	if s.UpdateBatches > 0 {
		fmt.Fprintf(&b, "updates: batches=%d samples=%d cells=%d written=%d retired=%d regroups=%d\n",
			s.UpdateBatches, s.UpdatesApplied, s.UpdateCellsTouched,
			s.UpdatePagesWritten, s.EpochsRetired, s.RegroupEvents)
	}
	if s.TilesPruned+s.TilesScanned > 0 {
		fmt.Fprintf(&b, "tiles: pruned=%d scanned=%d\n", s.TilesPruned, s.TilesScanned)
	}
	if s.AggregateQueries > 0 {
		fmt.Fprintf(&b, "aggregates: queries=%d fallbacks=%d\n",
			s.AggregateQueries, s.AggregateFallbacks)
	}
	if len(s.Latency) > 0 {
		b.WriteString("latency histogram:\n")
		for _, hb := range s.Latency {
			bound := "+inf"
			if hb.UpperBound != 0 {
				bound = "≤" + hb.UpperBound.String()
			}
			fmt.Fprintf(&b, "  %-10s %d\n", bound, hb.Count)
		}
	}
	return b.String()
}
