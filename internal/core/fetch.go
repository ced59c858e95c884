package core

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// This file holds the two fetch shapes every value query refines through —
// ascending heap positions (fetchPositions) and runs of heap pages (scanRuns)
// — and the sinks they feed. Each loop keeps the partial-decode interval test
// and the tested-cell count to itself and hands a sink only the records that
// survive.

// run is one inclusive range of consecutive pages — one sequential-I/O unit.
// A pageRun counts in indexes into a heap file's page list, a physRun in page
// ids.
type run[T ~int | ~uint32] struct{ first, last T }

type (
	pageRun = run[int]
	physRun = run[storage.PageID]
)

// mergeRuns sorts runs and merges overlapping or adjacent ones in place, so
// every page is read once and the reads stay sequential.
func mergeRuns[T ~int | ~uint32](runs []run[T]) []run[T] {
	slices.SortFunc(runs, func(a, b run[T]) int { return cmp.Compare(a.first, b.first) })
	merged := runs[:0]
	for _, r := range runs {
		merged = appendRun(merged, r)
	}
	return merged
}

// appendRun appends r to runs, whose last run starts at or before r does,
// merged into that last run where the two overlap or touch.
func appendRun[T ~int | ~uint32](runs []run[T], r run[T]) []run[T] {
	if n := len(runs); n > 0 && r.first <= runs[n-1].last+1 {
		runs[n-1].last = max(runs[n-1].last, r.last)
		return runs
	}
	return append(runs, r)
}

// survivor is one record that passed the interval test, decoded in full at
// most once however many sinks take it (a batch hands one record to every
// member it satisfies).
type survivor struct {
	rec     []byte
	c       field.Cell
	decoded bool
}

// reset points the survivor at the next record.
func (s *survivor) reset(rec []byte) { s.rec, s.decoded = rec, false }

// cell returns the fully decoded cell.
func (s *survivor) cell() (*field.Cell, error) {
	if !s.decoded {
		if err := field.DecodeCell(s.rec, &s.c); err != nil {
			return nil, err
		}
		s.decoded = true
	}
	return &s.c, nil
}

// sink receives the surviving records of a fetch in fold order. The record
// bytes are only valid during the call.
type sink interface {
	add(s *survivor) error
}

// resultSink refines each survivor straight into a Result: the full decode
// plus the fold of estimateMatched, in the order the fetch hands them over.
// With measure it is the measure sink: the same fold, the same float additions
// in the same order, but the band kernel clips into scratch and nothing of the
// geometry outlives the cell — the Result gets its counts and areas and nil
// Regions and Isolines.
type resultSink struct {
	res     *Result
	measure bool
	regionStore
}

func (rs *resultSink) add(s *survivor) error {
	c, err := s.cell()
	if err != nil {
		return err
	}
	rs.estimateMatched(c)
	return nil
}

// partial is the sink of a fetch whose survivors fold into the Result later:
// one tile of a tiled query, one block of page runs of a parallel refinement.
// It refines each survivor where the fetch runs — on the worker, straight from
// the page — into regions over vertex chunks of its own (unless it measures),
// and keeps, in the order the fetch hands the survivors over, everything the
// fold adds up, so gather touches no record and no vertex.
type partial struct {
	q geom.Interval
	// measure keeps no answer pieces: only each cell's count and areas.
	measure bool
	regionStore
	cells []refined
	// pieces counts the cells' answer pieces; unless the partial measures,
	// regions (or isolines, for a zero-width query) holds them back to back,
	// in the order of cells.
	pieces   int32
	regions  []geom.Polygon
	isolines [][2]geom.Point
}

// refined is one matched cell of a partial: how many answer pieces it has, its
// planar area and, in order, the areas of its regions — a cell has two at most.
type refined struct {
	n     int32
	area  float64
	areas [2]float64
}

// reserve sizes the partial for the n survivors its fetch is about to hand it —
// the positions a filter selected, or an estimate — so that filling it
// allocates once and not per doubling: its entries, its region headers and,
// unless it measures, its first vertex chunk. A pooled partial keeps arrays
// that are large enough already.
func (p *partial) reserve(n int) {
	if cap(p.cells) < n {
		p.cells = make([]refined, 0, n)
	}
	if p.q.Length() > 0 && !p.measure {
		if cap(p.regions) < n {
			p.regions = make([]geom.Polygon, 0, n)
		}
		if p.chunk == nil && n > 0 {
			p.chunk = make([]geom.Point, 0, min(max(n*chunkPointsPerCell, minRegionChunk), maxRegionChunk))
		}
	}
}

// chunkPointsPerCell is the vertex room reserve gives each expected survivor
// in a partial's first chunk.
const chunkPointsPerCell = 8

// recycle empties the partial for another fetch. It keeps the arrays gather
// copies out of — entries, region headers (cleared, so that they hold no
// vertices alive), isolines — and a measuring partial's scratch chunk, but
// never a chunk whose vertices a Result's regions may hold.
func (p *partial) recycle() {
	var chunk []geom.Point
	if p.measure {
		chunk = p.chunk[:0]
	}
	clear(p.regions)
	*p = partial{regionStore: regionStore{chunk}, cells: p.cells[:0], regions: p.regions[:0], isolines: p.isolines[:0]}
}

// fanBuf is the pooled scratch of a query that scatters: its items — the
// bounds of its blocks of page runs, or its residual tiles — and per item a
// partial and two counts the item's scan reports.
type fanBuf struct {
	items  []int
	parts  []partial
	counts [][2]int
	// block is scanBlock, bound once when the pool makes the fanBuf:
	// refineBlocks scatters it over the query's inputs below, where a closure
	// would allocate on every query.
	block   func(b int, child *storage.QueryCtx) error
	ctx     context.Context
	heap    *storage.HeapFile
	runs    []pageRun
	q       geom.Interval
	measure bool
	perPage int
}

var fanBufs = sync.Pool{New: func() any {
	fb := new(fanBuf)
	fb.block = fb.scanBlock
	return fb
}}

// scanBlock scans block b of refineBlocks' page runs on child into the
// block's own partial.
func (fb *fanBuf) scanBlock(b int, child *storage.QueryCtx) (err error) {
	runs := fb.runs[fb.items[b]:fb.items[b+1]]
	pages := 0
	for _, r := range runs {
		pages += r.last - r.first + 1
	}
	part := &fb.parts[b]
	part.q, part.measure = fb.q, fb.measure
	part.reserve(pages * fb.perPage)
	fb.counts[b][0], err = scanRuns(fb.ctx, child, fb.heap, runs, fb.q, part)
	return err
}

// getFanBuf returns a fanBuf with no items; putFanBuf recycles it once gather
// has folded its partials into the Result.
func getFanBuf() *fanBuf {
	fb := fanBufs.Get().(*fanBuf)
	fb.items = fb.items[:0]
	return fb
}

func putFanBuf(fb *fanBuf) {
	for i := range fb.parts {
		fb.parts[i].recycle()
	}
	fb.ctx, fb.heap, fb.runs = nil, nil, nil
	fanBufs.Put(fb)
}

// size readies an empty partial and zeroed counts for each of n items.
func (fb *fanBuf) size(n int) {
	if cap(fb.parts) < n {
		fb.parts = slices.Grow(fb.parts[:0], n)
	}
	fb.parts = fb.parts[:n]
	fb.counts = append(fb.counts[:0], make([][2]int, n)...)
}

func (p *partial) add(s *survivor) error {
	c, err := s.cell()
	if err != nil {
		return err
	}
	e := refined{area: c.Area()}
	var n int
	if p.q.Length() == 0 {
		segs := field.Isolines(c, p.q.Lo)
		if n = len(segs); !p.measure {
			p.isolines = append(p.isolines, segs...)
		}
	} else {
		p.regions, n, e.areas = p.band(p.regions, !p.measure, c, p.q)
	}
	e.n = int32(n)
	p.pieces += e.n
	p.cells = append(p.cells, e)
	return nil
}

// fold adds the partial's cells to res exactly as estimateMatched would have,
// one after another: the same counters, the same float additions in the same
// order.
func (p *partial) fold(res *Result) {
	res.CellsMatched += len(p.cells)
	if p.q.Length() == 0 {
		for _, e := range p.cells {
			res.MatchedCellArea += e.area
		}
		res.IsolineCount += int(p.pieces)
		res.Isolines = append(res.Isolines, p.isolines...)
		return
	}
	for i := range p.cells {
		e := &p.cells[i]
		res.MatchedCellArea += e.area
		for _, a := range e.areas[:e.n] {
			res.Area += a
		}
	}
	res.RegionCount += int(p.pieces)
	res.Regions = append(res.Regions, p.regions...)
}

// gather folds the partials into res one after another as they stand: the
// tiles of a tiled query in tile order, the blocks of page runs of one
// partition in run order — each in the order its fetch handed it over.
func gather(res *Result, parts []partial) {
	regions, isolines := 0, 0
	for i := range parts {
		regions += len(parts[i].regions)
		isolines += len(parts[i].isolines)
	}
	// Exact capacities; a Result without regions keeps its nil slice, as a
	// direct fold leaves it.
	if regions > 0 {
		res.Regions = make([]geom.Polygon, 0, regions)
	}
	if isolines > 0 {
		res.Isolines = make([][2]geom.Point, 0, isolines)
	}
	for i := range parts {
		parts[i].fold(res)
	}
}

// fetchCancelStride is how many survivor records a position fetch processes
// between cancellation polls; scanCancelStride is the same for the records a
// run scan tests.
const (
	fetchCancelStride = 1024
	scanCancelStride  = 1024
)

// fetch reads the candidates pr holds through qc — positions or page runs,
// whichever the partition's method finds — and hands the survivors to sk,
// returning how many records it tested itself. Ascending positions are the
// same distinct pages a scrambled visit order would touch, read once each and
// charged sequentially wherever candidates are physically adjacent.
func (p *partition) fetch(ctx context.Context, qc *storage.QueryCtx, pr *probe, sk sink) (int, error) {
	if p.byPos {
		return fetchPositions(ctx, qc, p.rids, pr.pos, pr.q, p.tested, sk)
	}
	return scanRuns(ctx, qc, p.heap, pr.runs, pr.q, sk)
}

// fetchPositions reads the heap records at the given ascending positions
// through qc and hands the survivors to sk in position order. With tested set
// the positions already passed the interval test (a sidecar filter selected
// them) and every record survives; otherwise each record's interval is tested
// against q on the partial decode and counted in the returned total.
// Positions whose pages are physically consecutive are grouped into one
// ReadRun — every page of a run holds at least one position, so the run reads
// exactly the pages the positions require, each once, charged sequentially
// after the first. rids must be the heap file's record ids in append order
// (position i ↦ rids[i]). ctx is polled per run and every fetchCancelStride
// records.
func fetchPositions(ctx context.Context, qc *storage.QueryCtx, rids []storage.RID, pos []int32, q geom.Interval, tested bool, sk sink) (fetched int, err error) {
	var sv survivor
	processed := 0
	for i := 0; i < len(pos); {
		if err := ctx.Err(); err != nil {
			return fetched, err
		}
		// Extend the run while the next position sits on the same page or the
		// page immediately after: a gap page would be read (and charged) for
		// nothing, so it ends the run instead.
		first := rids[pos[i]].Page
		last := first
		j := i + 1
		for j < len(pos) {
			pg := rids[pos[j]].Page
			if pg != last && pg != last+1 {
				break
			}
			last = pg
			j++
		}
		k := i
		var innerErr error
		err := qc.ReadRun(first, last, func(id storage.PageID, page []byte) bool {
			for k < j && rids[pos[k]].Page == id {
				rec, err := storage.RecordInPage(page, rids[pos[k]].Slot)
				keep := err == nil
				if keep && !tested {
					var ok bool
					if keep, ok = field.RecordIntersects(rec, q); ok {
						fetched++
					} else {
						_, err = field.CellIntervalFromRecord(rec)
					}
				}
				if keep && err == nil {
					sv.reset(rec)
					err = sk.add(&sv)
				}
				if err != nil {
					innerErr = err
					return false
				}
				k++
				processed++
				if processed%fetchCancelStride == 0 {
					if innerErr = ctx.Err(); innerErr != nil {
						return false
					}
				}
			}
			return true
		})
		if err != nil {
			return fetched, err
		}
		if innerErr != nil {
			return fetched, innerErr
		}
		i = j
	}
	return fetched, nil
}

// scanRuns reads each run of heap pages through qc in order, testing every
// record's interval against q and handing the matches to sk; it returns how
// many records it tested. ctx is polled before each run and every
// scanCancelStride records — adjacent subfield runs merge into long
// sequential scans, so between-run polls alone would be too coarse. One pooled
// visitor walks the whole list, so the scan allocates nothing.
func scanRuns(ctx context.Context, qc *storage.QueryCtx, heap *storage.HeapFile, runs []pageRun, q geom.Interval, sk sink) (fetched int, err error) {
	s := runScanners.Get().(*runScanner)
	s.ctx, s.q, s.sk = ctx, q, sk
	err = heap.ScanRunsCtx(qc, len(runs), func(i int) (int, int, error) {
		return runs[i].first, runs[i].last, ctx.Err()
	}, s.visit)
	if err == nil {
		err = s.err
	}
	fetched = s.fetched
	s.ctx, s.sk, s.sv.rec, s.fetched, s.err = nil, nil, nil, 0, nil
	runScanners.Put(s)
	return fetched, err
}

// runScanner is the state of scanRuns' page visitor: the scan's context,
// interval and sink, the survivor — which keeps its decode storage from scan to
// scan — the count of records tested and what stopped the scan early: a bad
// record, the sink, or ctx. It is pooled with visit, its page method, bound
// once.
type runScanner struct {
	ctx     context.Context
	q       geom.Interval
	sk      sink
	sv      survivor
	fetched int
	err     error
	visit   func(storage.PageID, []byte) bool
}

var runScanners = sync.Pool{New: func() any {
	s := new(runScanner)
	s.visit = s.page
	return s
}}

// page is the record kernel of a run scan: one walk over a page's slots, each
// record tested on its values where they lie (field.RecordIntersects) and
// handed to the sink only when it meets q. A slot or record the page does not
// hold ends the scan with the error RecordInPage or CellIntervalFromRecord
// gives it.
func (s *runScanner) page(_ storage.PageID, page []byte) bool {
	n, err := storage.PageSlots(page)
	for slot := 0; slot < n && err == nil; slot++ {
		rec, ok := storage.SlotRecord(page, slot)
		if !ok {
			_, err = storage.RecordInPage(page, uint16(slot))
			break
		}
		hit, ok := field.RecordIntersects(rec, s.q)
		if !ok {
			_, err = field.CellIntervalFromRecord(rec)
			break
		}
		s.fetched++
		if hit {
			s.sv.reset(rec)
			err = s.sk.add(&s.sv)
		}
		if s.fetched%scanCancelStride == 0 && err == nil {
			err = s.ctx.Err()
		}
	}
	s.err = err
	return err == nil
}
