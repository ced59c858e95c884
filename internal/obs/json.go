package obs

// The JSON view of a QueryTrace. A trace is built for in-process consumers —
// Phase is a uint8, Begin a time.Time — so the View types translate it for the
// wire: phases by name, the begin time as begin_unix_ns, every duration an
// explicit _ns field. The serving tier renders /traces through them. A metrics
// Snapshot needs no view: its JSON tags are its wire names (a time.Duration
// marshals as the integer nanoseconds its _ns key promises), so /metrics is
// the snapshot itself.

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
