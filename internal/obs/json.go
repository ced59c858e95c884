package obs

// JSON views of the observability types. QueryTrace and Snapshot are built
// for in-process consumers — Phase is a uint8, durations are time.Duration —
// so marshaling them directly would leak numeric phase codes and ambiguous
// nanosecond fields into wire formats. The View types fix the wire contract:
// snake_case keys, phases by name, every duration an explicit _ns field. The
// serving tier (internal/serve) renders /metrics and /traces through them.

// PageCountsView is the wire form of PageCounts.
type PageCountsView struct {
	Reads        int   `json:"reads"`
	SeqReads     int   `json:"seq_reads"`
	RandReads    int   `json:"rand_reads"`
	CacheHits    int   `json:"cache_hits"`
	SimElapsedNs int64 `json:"sim_elapsed_ns"`
}

// View returns the wire form of c.
func (c PageCounts) View() PageCountsView {
	return PageCountsView{
		Reads:        c.Reads,
		SeqReads:     c.SeqReads,
		RandReads:    c.RandReads,
		CacheHits:    c.CacheHits,
		SimElapsedNs: int64(c.SimElapsed),
	}
}

// SpanView is the wire form of one Span: the phase by name, offsets and
// lengths in nanoseconds.
type SpanView struct {
	Phase      string         `json:"phase"`
	StartNs    int64          `json:"start_ns"`
	DurationNs int64          `json:"duration_ns"`
	Pages      PageCountsView `json:"pages"`
}

// TraceView is the wire form of one QueryTrace.
type TraceView struct {
	Method      string         `json:"method"`
	Kind        string         `json:"kind"`
	Lo          float64        `json:"lo"`
	Hi          float64        `json:"hi"`
	BeginUnixNs int64          `json:"begin_unix_ns"`
	DurationNs  int64          `json:"duration_ns"`
	Spans       []SpanView     `json:"spans"`
	IO          PageCountsView `json:"io"`
	Err         string         `json:"err,omitempty"`
}

// View returns the wire form of t.
func (t *QueryTrace) View() TraceView {
	v := TraceView{
		Method:      t.Method,
		Kind:        t.Kind,
		Lo:          t.Lo,
		Hi:          t.Hi,
		BeginUnixNs: t.Begin.UnixNano(),
		DurationNs:  int64(t.Duration),
		IO:          t.IO.View(),
		Err:         t.Err,
	}
	v.Spans = make([]SpanView, len(t.Spans))
	for i, s := range t.Spans {
		v.Spans[i] = SpanView{
			Phase:      s.Phase.String(),
			StartNs:    int64(s.Start),
			DurationNs: int64(s.Duration),
			Pages:      s.Pages.View(),
		}
	}
	return v
}

// MethodCountersView is the wire form of one method's counters.
type MethodCountersView struct {
	Method   string `json:"method"`
	Queries  int64  `json:"queries"`
	Failures int64  `json:"failures"`
	Canceled int64  `json:"canceled"`
}

// HistBucketView is the wire form of one latency bucket; upper_bound_ns 0
// marks the unbounded tail, as in HistBucket.
type HistBucketView struct {
	UpperBoundNs int64 `json:"upper_bound_ns"`
	Count        int64 `json:"count"`
}

// BatchSizeBucketView is the wire form of one batch-size bucket.
type BatchSizeBucketView struct {
	MaxSize int64 `json:"max_size"`
	Count   int64 `json:"count"`
}

// SnapshotView is the wire form of a metrics Snapshot.
type SnapshotView struct {
	Methods             []MethodCountersView  `json:"methods,omitempty"`
	Queries             int64                 `json:"queries"`
	LatencySumNs        int64                 `json:"latency_sum_ns"`
	Latency             []HistBucketView      `json:"latency,omitempty"`
	LatencyP50Ns        int64                 `json:"latency_p50_ns"`
	LatencyP95Ns        int64                 `json:"latency_p95_ns"`
	IndexPagesRead      int64                 `json:"index_pages_read"`
	SidecarPagesRead    int64                 `json:"sidecar_pages_read"`
	CellPagesRead       int64                 `json:"cell_pages_read"`
	CacheHits           int64                 `json:"cache_hits"`
	SimElapsedNs        int64                 `json:"sim_elapsed_ns"`
	WorkerItems         int64                 `json:"worker_items"`
	WorkerBusyNs        int64                 `json:"worker_busy_ns"`
	WorkerWallNs        int64                 `json:"worker_wall_ns"`
	WorkerConcurrency   float64               `json:"worker_concurrency"`
	ContourAssemblies   int64                 `json:"contour_assemblies"`
	ContourTimeNs       int64                 `json:"contour_time_ns"`
	Batches             int64                 `json:"batches"`
	BatchQueries        int64                 `json:"batch_queries"`
	BatchSizes          []BatchSizeBucketView `json:"batch_sizes,omitempty"`
	BatchPhysicalPages  int64                 `json:"batch_physical_pages"`
	CoalescedPagesSaved int64                 `json:"coalesced_pages_saved"`
	GroupsFreeSlot      int64                 `json:"groups_free_slot"`
	GroupsHandover      int64                 `json:"groups_handover"`
	GroupsExpired       int64                 `json:"groups_expired"`
	WindowWaiters       int64                 `json:"window_waiters"`
	WindowWaitSumNs     int64                 `json:"window_wait_sum_ns"`
	WindowWaitMaxNs     int64                 `json:"window_wait_max_ns"`
	UpdateBatches       int64                 `json:"update_batches"`
	UpdatesApplied      int64                 `json:"updates_applied"`
	UpdateCellsTouched  int64                 `json:"update_cells_touched"`
	UpdatePagesWritten  int64                 `json:"update_pages_written"`
	EpochsRetired       int64                 `json:"epochs_retired"`
	RegroupEvents       int64                 `json:"regroup_events"`
	TilesPruned         int64                 `json:"tiles_pruned"`
	TilesScanned        int64                 `json:"tiles_scanned"`
	AggregateQueries    int64                 `json:"aggregate_queries"`
	AggregateFallbacks  int64                 `json:"aggregate_fallbacks"`
}

// View returns the wire form of s.
func (s Snapshot) View() SnapshotView {
	v := SnapshotView{
		Queries:             s.Queries,
		LatencySumNs:        int64(s.LatencySum),
		LatencyP50Ns:        int64(s.LatencyP50),
		LatencyP95Ns:        int64(s.LatencyP95),
		IndexPagesRead:      s.IndexPagesRead,
		SidecarPagesRead:    s.SidecarPagesRead,
		CellPagesRead:       s.CellPagesRead,
		CacheHits:           s.CacheHits,
		SimElapsedNs:        int64(s.SimElapsed),
		WorkerItems:         s.WorkerItems,
		WorkerBusyNs:        int64(s.WorkerBusy),
		WorkerWallNs:        int64(s.WorkerWall),
		WorkerConcurrency:   s.WorkerConcurrency,
		ContourAssemblies:   s.ContourAssemblies,
		ContourTimeNs:       int64(s.ContourTime),
		Batches:             s.Batches,
		BatchQueries:        s.BatchQueries,
		BatchPhysicalPages:  s.BatchPhysicalPages,
		CoalescedPagesSaved: s.CoalescedPagesSaved,
		GroupsFreeSlot:      s.GroupsFreeSlot,
		GroupsHandover:      s.GroupsHandover,
		GroupsExpired:       s.GroupsExpired,
		WindowWaiters:       s.WindowWaiters,
		WindowWaitSumNs:     int64(s.WindowWaitSum),
		WindowWaitMaxNs:     int64(s.WindowWaitMax),
		UpdateBatches:       s.UpdateBatches,
		UpdatesApplied:      s.UpdatesApplied,
		UpdateCellsTouched:  s.UpdateCellsTouched,
		UpdatePagesWritten:  s.UpdatePagesWritten,
		EpochsRetired:       s.EpochsRetired,
		RegroupEvents:       s.RegroupEvents,
		TilesPruned:         s.TilesPruned,
		TilesScanned:        s.TilesScanned,
		AggregateQueries:    s.AggregateQueries,
		AggregateFallbacks:  s.AggregateFallbacks,
	}
	for _, m := range s.Methods {
		v.Methods = append(v.Methods, MethodCountersView(m))
	}
	for _, hb := range s.Latency {
		v.Latency = append(v.Latency, HistBucketView{UpperBoundNs: int64(hb.UpperBound), Count: hb.Count})
	}
	for _, bb := range s.BatchSizes {
		v.BatchSizes = append(v.BatchSizes, BatchSizeBucketView(bb))
	}
	return v
}
