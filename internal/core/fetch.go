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
// — and the one sink they feed, the stream. Each loop keeps the partial-decode
// interval test and the tested-cell count to itself and hands a sink only the
// records that survive.

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
// most once however many streams take it (a batch hands one record to every
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
// bytes are only valid during the call. A stream is the engine's one sink; a
// test may count survivors with another, to time a scan alone.
type sink interface {
	add(s *survivor) error
}

// stream is the one sink every value query refines through: the refinement
// scratch of one scan worker — a scatter worker, the caller on a sequential
// path, a batch member — for one query. Every survivor of every tile or block
// the worker scans refines into it where the fetch runs, straight from the
// page, and it keeps, in the order the fetch hands them over, everything the
// fold adds up and, unless it measures, the answer pieces over vertex chunks of
// its own; an item's part of it is a partial. Its arrays are pooled scratch,
// its chunks belong to the Result.
type stream struct {
	q geom.Interval
	// measure keeps no answer pieces: only each cell's count and areas.
	measure bool
	regionStore
	cells []refined
	// Unless the stream measures, regions (or isolines, for a zero-width
	// query) holds the cells' answer pieces back to back, in the order of
	// cells.
	regions  []geom.Polygon
	isolines [][2]geom.Point
}

// refined is one matched cell of a stream: how many answer pieces it has, its
// planar area and, in order, the areas of its regions — a cell has two at most.
type refined struct {
	n     int32
	area  float64
	areas [2]float64
}

// streamMark is how far a stream is filled: its cells, regions and isolines.
type streamMark struct{ cells, regions, isolines int }

func (s *stream) mark() streamMark { return streamMark{len(s.cells), len(s.regions), len(s.isolines)} }

// partial is what one item — a tile, a block of page runs, a sequential fetch —
// refined: the window [from, to) of the stream it was scanned into.
type partial struct {
	s        *stream
	from, to streamMark
}

// since returns the partial of what s took in after from.
func (s *stream) since(from streamMark) partial { return partial{s, from, s.mark()} }

// reserve readies the stream for the n survivors an item's fetch is about to
// hand it — the positions a filter selected, or an estimate — so that filling
// its entries and region headers allocates at most once; a stream's first
// chunk is sized from its first item's n, and band doubles the later ones.
func (s *stream) reserve(n int) {
	s.cells = slices.Grow(s.cells, n)
	if s.q.Length() > 0 && !s.measure {
		s.regions = slices.Grow(s.regions, n)
		if s.chunk == nil && n > 0 {
			s.chunk = make([]geom.Point, 0, min(max(n*chunkPointsPerCell, minRegionChunk), maxRegionChunk))
		}
	}
}

// chunkPointsPerCell is the vertex room reserve gives each expected survivor
// in a stream's first chunk.
const chunkPointsPerCell = 8

// recycle empties the stream for another query. It keeps its arrays — the
// region headers cleared, so that they hold no vertices alive — and a
// measuring stream's scratch chunk, but never a chunk a Result's regions hold.
func (s *stream) recycle() {
	var chunk []geom.Point
	if s.measure {
		chunk = s.chunk[:0]
	}
	clear(s.regions)
	*s = stream{regionStore: regionStore{chunk}, cells: s.cells[:0], regions: s.regions[:0], isolines: s.isolines[:0]}
}

// fanBuf is the pooled scratch of a value query: its items — the bounds of
// its blocks of page runs, or its residual tiles —, a stream per worker, and
// per item a partial and two counts the item's scan reports. Each stream is
// an object of its own: workers that wrote neighbours in one array would
// share cache lines on every refined cell.
type fanBuf struct {
	items   []int
	streams []*stream
	parts   []partial
	counts  [][2]int
	// block and tile are scanBlock and scanTile, bound once when the pool
	// makes the fanBuf: refineBlocks and queryTiles scatter them over the
	// query's inputs below, where a closure would allocate on every query.
	block, tile func(w, i int, child *storage.QueryCtx) error
	ctx         context.Context
	heap        *storage.HeapFile
	runs        []pageRun
	perPage     int
	eng         *engine
	st          *state
}

var fanBufs = sync.Pool{New: func() any {
	fb := new(fanBuf)
	fb.block, fb.tile = fb.scanBlock, fb.scanTile
	return fb
}}

// scanBlock scans block b of refineBlocks' page runs on child into worker w's
// stream.
func (fb *fanBuf) scanBlock(w, b int, child *storage.QueryCtx) (err error) {
	runs := fb.runs[fb.items[b]:fb.items[b+1]]
	pages := 0
	for _, r := range runs {
		pages += r.last - r.first + 1
	}
	s := fb.streams[w]
	s.reserve(pages * fb.perPage)
	from := s.mark()
	fb.counts[b][0], err = scanRuns(fb.ctx, child, fb.heap, runs, s.q, s)
	fb.parts[b] = s.since(from)
	return err
}

// scanTile scans residual tile i of queryTiles on child into worker w's
// stream.
func (fb *fanBuf) scanTile(w, i int, child *storage.QueryCtx) (err error) {
	fb.counts[i][0], fb.counts[i][1], err = fb.eng.scanTile(fb.ctx, child, fb.st, fb.items[i], fb.streams[w], &fb.parts[i])
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
	for _, s := range fb.streams {
		s.recycle()
	}
	clear(fb.parts)
	fb.ctx, fb.heap, fb.runs, fb.eng, fb.st = nil, nil, nil, nil, nil
	fanBufs.Put(fb)
}

// size readies workers streams refining q — measuring or not —, and an empty
// partial and zeroed counts for each of n items.
func (fb *fanBuf) size(workers, n int, q geom.Interval, measure bool) {
	for len(fb.streams) < workers {
		fb.streams = append(fb.streams, new(stream))
	}
	for _, s := range fb.streams[:workers] {
		s.q, s.measure = q, measure
	}
	fb.parts = append(fb.parts[:0], make([]partial, n)...)
	fb.counts = append(fb.counts[:0], make([][2]int, n)...)
}

// add refines one survivor into the stream.
func (s *stream) add(sv *survivor) error {
	c, err := sv.cell()
	if err != nil {
		return err
	}
	s.refine(c)
	return nil
}

// refine is the estimation step for one cell whose interval already matched
// the stream's query: its entry and — unless the stream measures — its answer
// pieces.
func (s *stream) refine(c *field.Cell) {
	e := refined{area: c.Area()}
	var n int
	if s.q.Length() == 0 {
		segs := field.Isolines(c, s.q.Lo)
		if n = len(segs); !s.measure {
			s.isolines = append(s.isolines, segs...)
		}
	} else {
		s.regions, n, e.areas = s.band(s.regions, !s.measure, c, s.q)
	}
	e.n = int32(n)
	s.cells = append(s.cells, e)
}

// fold adds the partial's cells to res one after another: the counters, each
// cell's own area, the areas of its regions added left to right and — unless
// the stream measures — its answer pieces.
func (p *partial) fold(res *Result) {
	s := p.s
	cells := s.cells[p.from.cells:p.to.cells]
	res.CellsMatched += len(cells)
	if s.q.Length() == 0 {
		for _, e := range cells {
			res.MatchedCellArea += e.area
			res.IsolineCount += int(e.n)
		}
		res.Isolines = append(res.Isolines, s.isolines[p.from.isolines:p.to.isolines]...)
		return
	}
	for i := range cells {
		e := &cells[i]
		res.MatchedCellArea += e.area
		res.RegionCount += int(e.n)
		for _, a := range e.areas[:e.n] {
			res.Area += a
		}
	}
	res.Regions = append(res.Regions, s.regions[p.from.regions:p.to.regions]...)
}

// gather folds the partials into res one after another as they stand: the
// tiles of a tiled query in tile order, the blocks of page runs of one
// partition in run order — each in the order its fetch handed it over.
func gather(res *Result, parts []partial) {
	regions, isolines := 0, 0
	for i := range parts {
		regions += parts[i].to.regions - parts[i].from.regions
		isolines += parts[i].to.isolines - parts[i].from.isolines
	}
	// Exact capacities; a Result without regions keeps its nil slice.
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
		return fetchPositions(ctx, qc, p.heap, pr.pos, pr.q, p.tested, sk)
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
// after the first. The positions must lie in [0, heap.Count()); one forward
// cursor resolves them to pages. ctx is polled per run and every
// fetchCancelStride records. One pooled visitor serves every run, so the fetch
// allocates nothing.
func fetchPositions(ctx context.Context, qc *storage.QueryCtx, heap *storage.HeapFile, pos []int32, q geom.Interval, tested bool, sk sink) (fetched int, err error) {
	f := posFetchers.Get().(*posFetcher)
	f.ctx, f.heap, f.pos, f.q, f.tested, f.sk = ctx, heap, pos, q, tested, sk
	at, pages := heap.Cursor(), heap.Pages()
	for i := 0; i < len(pos) && err == nil; {
		if err = ctx.Err(); err != nil {
			break
		}
		// Extend the run while the next position sits on the same page or the
		// page immediately after: a gap page would be read (and charged) for
		// nothing, so it ends the run instead.
		pi := at.Page(int(pos[i]))
		first, last := pages[pi], pages[pi]
		j := i + 1
		for ; j < len(pos); j++ {
			pg := pages[at.Page(int(pos[j]))]
			if pg != last && pg != last+1 {
				break
			}
			last = pg
		}
		// A run's pages are consecutive ids, so consecutive in the heap's list.
		f.k, f.end, f.pi = i, j, pi
		err = cmp.Or(qc.ReadRun(first, last, f.visit), f.err)
		i = j
	}
	fetched = f.fetched
	f.ctx, f.heap, f.pos, f.sk, f.sv.rec, f.fetched, f.processed, f.err = nil, nil, nil, nil, nil, 0, 0, nil
	posFetchers.Put(f)
	return fetched, err
}

// posFetcher is the state of fetchPositions' page visitor: the fetch's
// context, heap, positions, interval and sink, the cursor of the run being
// read — the next position k, the run's end and the heap page index pi of the
// next page — the survivor, which keeps its decode storage from fetch to
// fetch, the counts and what stopped the fetch early. It is pooled with
// visit, its page method, bound once.
type posFetcher struct {
	ctx    context.Context
	heap   *storage.HeapFile
	pos    []int32
	q      geom.Interval
	tested bool
	sk     sink
	sv     survivor

	k, end, pi         int
	fetched, processed int
	err                error
	visit              func(storage.PageID, []byte) bool
}

var posFetchers = sync.Pool{New: func() any {
	f := new(posFetcher)
	f.visit = f.page
	return f
}}

// page takes the run's positions that lie on one page: each record picked out
// by slot, tested unless the filter tested it, and handed to the sink.
func (f *posFetcher) page(_ storage.PageID, page []byte) bool {
	start, end := f.heap.PageSpan(f.pi)
	f.pi++
	for ; f.k < f.end && int(f.pos[f.k]) < end; f.k++ {
		rec, err := storage.RecordInPage(page, uint16(int(f.pos[f.k])-start))
		keep := err == nil
		if keep && !f.tested {
			var ok bool
			if keep, ok = field.RecordIntersects(rec, f.q); ok {
				f.fetched++
			} else {
				_, err = field.CellIntervalFromRecord(rec)
			}
		}
		if keep && err == nil {
			f.sv.reset(rec)
			err = f.sk.add(&f.sv)
		}
		if f.processed++; err == nil && f.processed%fetchCancelStride == 0 {
			err = f.ctx.Err()
		}
		if err != nil {
			f.err = err
			return false
		}
	}
	return true
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
