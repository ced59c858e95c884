package core

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// countSink takes survivors and does nothing with them: what a scan costs
// without its refinement.
type countSink struct{ n int }

func (s *countSink) add(*survivor) error { s.n++; return nil }

// BenchmarkScanRuns times the record scan of a subfield run alone: one op is
// scanRuns over the merged page runs I-Hilbert's filter selected for one query
// of the 256×256 fixture's sel 0.05 rotation (the BenchmarkValueRange one),
// every page cached, into a sink that keeps nothing. ns/record is the time per
// tested record — the cost of the interval test and the slot walk that the
// sidecar filter's field.filter_ns_per_entry is to be read against.
func BenchmarkScanRuns(b *testing.B) {
	f, err := workload.Terrain(256, 4217)
	if err != nil {
		b.Fatal(err)
	}
	pager := storage.NewPager(storage.NewMemDisk(storage.DefaultPageSize), storage.DefaultDiskModel, 1<<16)
	built, err := Build(context.Background(), f, pager, BuildOptions{Method: MethodIHilbert})
	if err != nil {
		b.Fatal(err)
	}
	e := built.(*engine)
	p, st := e.parts[0], e.cur().parts[0]
	const sel = 0.05
	qs := workload.Queries(f.ValueRange(), sel, 64, 4217+int64(sel*1e6))
	runs := make([][]pageRun, len(qs))
	qc := pager.BeginQuery()
	defer qc.Release()
	pr := getProbe()
	for i, q := range qs {
		pr.reset(context.Background(), qc, q, false)
		if err := p.candidates(st, pr); err != nil {
			b.Fatal(err)
		}
		runs[i] = slices.Clone(pr.runs)
	}
	putProbe(pr)
	ctx := context.Background()
	var sk countSink
	tested := 0
	scan := func(i int) {
		n, err := scanRuns(ctx, qc, p.heap, runs[i], qs[i], &sk)
		if err != nil {
			b.Fatal(err)
		}
		tested += n
	}
	for i := range qs { // warm the pages and the pools
		scan(i)
	}
	tested = 0
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := range b.N {
		scan(i % len(qs))
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(tested), "ns/record")
}

// TestScanRefusesBadRecords: a record the page kernel cannot test ends the
// scan with the error the per-record path gave it — CellIntervalFromRecord's
// for a record that is no cell, RecordInPage's for a slot the page does not
// hold — after the records before it were tested and handed over, on the run
// scan and on a position fetch alike.
func TestScanRefusesBadRecords(t *testing.T) {
	pager := newPager()
	heap := storage.NewHeapFile(pager)
	quad := func(id field.CellID, w float64) []byte {
		c := field.Cell{ID: id, Vertices: make([]geom.Point, 4), Values: []float64{w, w, w, w}}
		return field.AppendCell(nil, &c)
	}
	bad := quad(2, 1)
	bad[4] = 5
	var first storage.PageID
	for i, rec := range [][]byte{quad(0, 1), quad(1, 9), bad, quad(3, 1)} {
		rid, err := heap.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rid.Page
		}
	}
	if err := heap.Flush(); err != nil {
		t.Fatal(err)
	}
	_, want := field.CellIntervalFromRecord(bad)
	q := geom.Interval{Lo: 0, Hi: 2}
	ctx := context.Background()
	qc := pager.BeginQuery()
	defer qc.Release()
	var sk countSink
	n, err := scanRuns(ctx, qc, heap, []pageRun{{0, 0}}, q, &sk)
	if err == nil || err.Error() != want.Error() || n != 2 || sk.n != 1 {
		t.Fatalf("run scan: %d tested, %d kept, %v; want 2, 1, %v", n, sk.n, err, want)
	}
	sk = countSink{}
	n, err = fetchPositions(ctx, qc, heap, []int32{0, 1, 2, 3}, q, false, &sk)
	if err == nil || err.Error() != want.Error() || n != 2 || sk.n != 1 {
		t.Fatalf("position fetch: %d tested, %d kept, %v; want 2, 1, %v", n, sk.n, err, want)
	}

	// A slot whose record runs past the page's end.
	page := make([]byte, pager.PageSize())
	if err := pager.ReadRun(first, first, func(_ storage.PageID, img []byte) bool { copy(page, img); return true }); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(page[len(page)-4:], uint16(len(page)-8)) // slot 0's offset
	if err := pager.WritePage(first, page); err != nil {
		t.Fatal(err)
	}
	_, want = storage.RecordInPage(page, 0)
	qc = pager.BeginQuery()
	defer qc.Release()
	sk = countSink{}
	if n, err = scanRuns(ctx, qc, heap, []pageRun{{0, 0}}, q, &sk); err == nil || err.Error() != want.Error() || n != 0 {
		t.Fatalf("run scan over a record past its page: %d tested, %v; want 0, %v", n, err, want)
	}
}

// TestStrayTreeEntry: a subfield tree read off a file may hold an entry naming
// a group the partition does not have — past the selection bitmap or only past
// the group list. The filter refuses the query with an error, not a panic.
func TestStrayTreeEntry(t *testing.T) {
	e, err := buildIx(testDEM(t, 64, 0.6), newPager(), BuildOptions{Method: MethodIHilbert})
	if err != nil {
		t.Fatal(err)
	}
	p, st := e.parts[0], e.cur().parts[0]
	if len(st.groups) <= 64 || len(st.groups)%64 == 1 {
		t.Fatalf("the check wants more than 64 groups, the last alone in no bitmap word; the fixture has %d", len(st.groups))
	}
	qc := e.pager.BeginQuery()
	defer qc.Release()
	pr := getProbe()
	defer putProbe(pr)
	for _, keep := range []int{1, len(st.groups) - 1} {
		short := &partState{tree: st.tree, groups: st.groups[:keep]}
		pr.reset(context.Background(), qc, e.ValueRange(), false)
		if err := p.candidates(short, pr); !errors.Is(err, errStrayEntry) {
			t.Errorf("a tree of %d groups over %d: %v, want errStrayEntry", len(st.groups), keep, err)
		}
	}
}
