package core

import (
	"time"

	"fielddb/internal/obs"
	"fielddb/internal/storage"
)

// observed is the observability state embedded in every facade-reachable
// index: the trace/metrics sinks and the index's pre-registered metrics
// method slot. The zero value is fully inert — an index that never sees
// SetObserver runs the exact pre-observability pipeline.
type observed struct {
	ob    obs.Observer
	mslot int
}

// setObs installs the sinks and registers the method's metrics slot.
func (o *observed) setObs(ob obs.Observer, method string) {
	o.ob = ob
	o.mslot = ob.Metrics.RegisterMethod(method)
}

// startQuery begins the query's trace (nil when tracing is off) and stamps
// the wall clock when a metrics registry is installed.
func (o *observed) startQuery(method, kind string, lo, hi float64) (*obs.TraceBuilder, time.Time) {
	tb := obs.Begin(o.ob.Tracer, method, kind, lo, hi)
	var start time.Time
	if o.ob.Metrics != nil {
		start = time.Now()
	}
	return tb, start
}

// endQuery completes the trace and folds the query into the metrics registry.
func (o *observed) endQuery(tb *obs.TraceBuilder, start time.Time, err error) {
	tb.Finish(err)
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordQuery(o.mslot, time.Since(start), err)
	}
}

// recordIO attributes a finished query's page accesses by step: filter is
// the private-stats snapshot taken at the filter/refinement boundary,
// sidecarReads is the portion of the query's reads served by the interval
// sidecar, and the refinement (or decode) step is the remainder. The three
// parts always sum back to total.Reads, which is what keeps the metrics
// registry reconciling with the pager's own totals.
func (o *observed) recordIO(filter storage.Stats, sidecarReads int, total storage.Stats) {
	if o.ob.Metrics != nil {
		o.ob.Metrics.RecordPages(filter.Reads, sidecarReads,
			total.Reads-filter.Reads-sidecarReads, total.CacheHits, total.SimElapsed)
	}
}
