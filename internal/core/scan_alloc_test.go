//go:build !race

// The race detector instruments allocations and changes their counts, so this
// check only holds in a plain build.

package core

import (
	"context"
	"runtime"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/rstar"
)

// TestScanAllocatesNothing: once warm, the record scan of a subfield query
// allocates nothing however many runs it walks — scanRuns hands a pooled page
// visitor to a pooled run scan — and the filter allocates nothing beyond its
// tree search: groupCandidates marks the selected subfields in the probe's
// bitmap and merges their runs into the probe's buffer. The counts are
// MemStats.Mallocs, as the facade's allocation ceilings count them; a closure
// or a buffer made per scan or per query shows here as one per call, below any
// ceiling a whole query could be held to.
func TestScanAllocatesNothing(t *testing.T) {
	f := testDEM(t, 128, 0.6)
	pager := newPager()
	e, err := buildIx(f, pager, BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	p, st := e.parts[0], e.cur().parts[0]
	vr := f.ValueRange()
	var qs []geom.Interval
	for i := range 16 {
		lo := vr.Lo + vr.Length()*float64(i)/16
		qs = append(qs, geom.Interval{Lo: lo, Hi: lo + vr.Length()*0.05})
	}
	ctx := context.Background()
	qc := pager.BeginQuery()
	defer qc.Release()
	pr := getProbe()
	defer putProbe(pr)
	runs := make([][]pageRun, len(qs))
	filter := func(i int) {
		pr.reset(ctx, qc, qs[i], false)
		if err := p.candidates(st, pr); err != nil {
			t.Fatal(err)
		}
		runs[i] = append(runs[i][:0], pr.runs...)
	}
	search := func(i int) {
		err := st.tree.PagedSearchCtx(qc, rstar.Interval1D(qs[i].Lo, qs[i].Hi), func(rstar.Entry) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	var sk countSink
	scan := func(i int) {
		if _, err := scanRuns(ctx, qc, p.heap, runs[i], qs[i], &sk); err != nil {
			t.Fatal(err)
		}
	}
	most := 0
	for i := range qs { // warm the buffers
		filter(i)
		search(i)
		scan(i)
		most = max(most, len(runs[i]))
	}
	// Finish the build's garbage now, so that no collection empties the pools
	// while the steps are counted, and count on one P, where the pools' per-P
	// caches stay warm; then warm them again.
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range qs {
		filter(i)
		scan(i)
	}
	if most < 8 {
		t.Fatalf("the widest query scans %d runs; the check wants many", most)
	}
	mallocs := func(step func(int)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 4 {
			for i := range qs {
				step(i)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// What a step allocates per call must round to 0: a stray object of the
	// runtime's may land in a count, one per call may not.
	calls := uint64(4 * len(qs))
	if n := mallocs(scan); 2*n >= calls {
		t.Errorf("%d warm scans of up to %d runs allocated %d objects", calls, most, n)
	}
	if filtered, searched := mallocs(filter), mallocs(search); 2*(filtered-min(filtered, searched)) >= calls {
		t.Errorf("%d warm filters allocated %d objects, their tree searches %d", calls, filtered, searched)
	}
}
