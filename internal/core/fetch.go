package core

import (
	"context"
	"sort"

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
	if len(runs) == 0 {
		return runs
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].first < runs[j].first })
	merged := runs[:1]
	for _, r := range runs[1:] {
		last := &merged[len(merged)-1]
		if r.first <= last.last+1 {
			if r.last > last.last {
				last.last = r.last
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
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

// resultSink refines each survivor into a Result: the full decode plus the
// answer geometry of estimateMatched. It owns the vertex storage behind
// res.Regions (chunk is the piece being filled), which can live neither on
// Result — whole Results are compared with reflect.DeepEqual across execution
// paths that chunk differently — nor in a pool: callers keep Regions.
type resultSink struct {
	res   *Result
	chunk []geom.Point
}

func (rs *resultSink) add(s *survivor) error {
	c, err := s.cell()
	if err != nil {
		return err
	}
	rs.estimateMatched(c)
	return nil
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
					var iv geom.Interval
					if iv, err = field.CellIntervalFromRecord(rec); err == nil {
						fetched++
						keep = iv.Intersects(q)
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
// record's interval against q on the partial decode and handing the matches
// to sk; it returns how many records it tested. ctx is polled before each run
// and every scanCancelStride records — adjacent subfield runs merge into long
// sequential scans, so between-run polls alone would be too coarse. One
// visitor walks the whole list, so the scan allocates per query, not per run.
func scanRuns(ctx context.Context, qc *storage.QueryCtx, heap *storage.HeapFile, runs []pageRun, q geom.Interval, sk sink) (fetched int, err error) {
	// The visitor's state sits in one block, so the scan costs two heap
	// objects (the block and the closure) however many runs it walks.
	var s struct {
		sv      survivor
		fetched int
		err     error // what stopped the scan early: a bad record, the sink, or ctx
	}
	err = heap.ScanRunsCtx(qc, len(runs), func(i int) (int, int, error) {
		return runs[i].first, runs[i].last, ctx.Err()
	}, func(_ storage.RID, rec []byte) bool {
		iv, err := field.CellIntervalFromRecord(rec)
		if err != nil {
			s.err = err
			return false
		}
		s.fetched++
		if iv.Intersects(q) {
			s.sv.reset(rec)
			if s.err = sk.add(&s.sv); s.err != nil {
				return false
			}
		}
		if s.fetched%scanCancelStride == 0 {
			s.err = ctx.Err()
		}
		return s.err == nil
	})
	if err == nil {
		err = s.err
	}
	return s.fetched, err
}
