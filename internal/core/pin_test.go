package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

// failingDisk passes through to a real disk until fail is set; from then on
// it serves spare more pages and every read reaching past them returns
// errInjected.
type failingDisk struct {
	storage.Disk
	fail  atomic.Bool
	spare atomic.Int64
}

var errInjected = errors.New("injected read failure")

func (d *failingDisk) ReadRun(first storage.PageID, bufs [][]byte) error {
	if d.fail.Load() && d.spare.Add(-int64(len(bufs))) < 0 {
		return errInjected
	}
	return d.Disk.ReadRun(first, bufs)
}

// TestFailedQueryReleasesPin: a query that dies on a storage error returns
// that error and leaves no epoch pinned — the next commit retires the epoch
// the query ran at. One row per query pipeline.
func TestFailedQueryReleasesPin(t *testing.T) {
	maxSize := func(d *grid.DEM) float64 { return d.ValueRange().Length()/8 + 1 }
	builders := map[string]func(*grid.DEM, *storage.Pager) (Index, error){
		"LinearScan+sidecar": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodLinearScan})
		},
		"LinearScan": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodLinearScan, NoSidecar: true})
		},
		"I-All": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodIAll})
		},
		"I-Hilbert": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodIHilbert})
		},
		"I-Quad": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodIQuad, MaxSize: maxSize(d)})
		},
		"I-Auto": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodAuto})
		},
		"Tiled-LinearScan": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodLinearScan, TileSide: 8})
		},
		"I-IntTree": func(d *grid.DEM, p *storage.Pager) (Index, error) { return BuildITree(d, p) },
		"IP-Row":    func(d *grid.DEM, p *storage.Pager) (Index, error) { return BuildIPRow(d, p) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			d := testDEM(t, 16, 0.6)
			disk := &failingDisk{Disk: storage.NewMemDisk(storage.DefaultPageSize)}
			// No buffer pool: every page a query touches is a disk read.
			pager := storage.NewPager(disk, storage.DefaultDiskModel, 0)
			idx, err := build(d, pager)
			if err != nil {
				t.Fatal(err)
			}
			disk.fail.Store(true)
			if _, err := idx.Query(d.ValueRange()); !errors.Is(err, errInjected) {
				t.Fatalf("query on a failing disk: %v, want the injected error", err)
			}
			if _, retired, err := pager.CommitOverlays(nil); err != nil || retired != 1 {
				t.Fatalf("commit after the failed query retired %d epochs (err %v), want 1: a pin leaked", retired, err)
			}
		})
	}
}

// pinnedAnswers is what the pin table compares across a batch: a fixed set of
// value queries and of point queries through sp, I/O statistics included, all
// answered at e's state.
type pinnedAnswers struct {
	values  []*Result
	points  []float64
	pointIO []storage.Stats
}

func answersAt(e Engine, sp *SpatialIndex, queries []geom.Interval, points []geom.Point) (pinnedAnswers, error) {
	ctx := context.Background()
	a := pinnedAnswers{
		values:  make([]*Result, len(queries)),
		points:  make([]float64, len(points)),
		pointIO: make([]storage.Stats, len(points)),
	}
	for i, q := range queries {
		var err error
		if a.values[i], err = e.QueryContext(ctx, q); err != nil {
			return a, err
		}
	}
	for i, pt := range points {
		var err error
		if a.points[i], a.pointIO[i], err = sp.PointQueryContext(ctx, e, pt); err != nil {
			return a, err
		}
	}
	return a, nil
}

// TestPinnedSnapshots drives the one pin helper through every buildable row of
// the build matrix: a snapshot keeps answering at its pin, byte for byte —
// value queries and, through the spatial tree, point queries alike — after a
// batch that moves cell intervals; its one pin keeps the epoch alive until
// Close, which is idempotent; once every handle is closed an empty commit
// retires exactly the epochs the pin held back; and a snapshot used after that
// panics.
func TestPinnedSnapshots(t *testing.T) {
	// A lattice dense enough that the batch moves some of the point answers.
	var points []geom.Point
	for x := 1.5; x < 32; x += 4 {
		for y := 1.5; y < 32; y += 4 {
			points = append(points, geom.Pt(x, y))
		}
	}
	for _, row := range buildMatrix(testDEM(t, 32, 0.7)) {
		if !row.buildable() {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			f := testDEM(t, 32, 0.7)
			pager := newPager()
			live, err := Build(context.Background(), f, pager, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := BuildSpatial(f, newPager())
			if err != nil {
				t.Fatal(err)
			}
			queries := tiledTestQueries(f)
			before, err := answersAt(live, sp, queries, points)
			if err != nil {
				t.Fatal(err)
			}
			snap := live.AcquireSnapshot()
			pinnedAt := snap.Epoch()
			res, err := live.ApplyUpdates(context.Background(), f, testUpdates(f, 48, 77))
			if errors.Is(err, ErrUpdatesUnsupported) {
				// I-Quad: nothing commits, so there is nothing to pin against.
				if err := snap.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.EpochsRetired != 0 || live.Epoch() != pinnedAt+1 || snap.Epoch() != pinnedAt {
				t.Fatalf("batch retired %d epochs; live at %d, snapshot at %d, pinned at %d",
					res.EpochsRetired, live.Epoch(), snap.Epoch(), pinnedAt)
			}
			after, err := answersAt(live, sp, queries, points)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(after.values, before.values) || reflect.DeepEqual(after.points, before.points) {
				t.Fatal("the batch changed no value answer or no point answer; the case is vacuous")
			}
			pinned, err := answersAt(snap, sp, queries, points)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pinned, before) {
				t.Fatal("snapshot answers moved with the live index")
			}
			for i := 0; i < 2; i++ {
				if err := snap.Close(); err != nil {
					t.Fatalf("snapshot Close %d: %v", i+1, err)
				}
			}
			// Still open for business, and nothing pinned any more: the next
			// commit retires the pinned epoch and the one the batch made.
			if _, err := answersAt(live, sp, queries, points); err != nil {
				t.Fatal(err)
			}
			if _, retired, err := pager.CommitOverlays(nil); err != nil || retired != 2 {
				t.Fatalf("commit after Close retired %d epochs (err %v), want 2: the snapshot's and the batch's", retired, err)
			}
			defer func() {
				if r := recover(); r != "core: snapshot used after Close" {
					t.Fatalf("snapshot used after Close: recovered %v, want the pin helper's panic", r)
				}
			}()
			answersAt(snap, sp, queries[:1], nil)
			t.Fatal("snapshot answered at a retired epoch")
		})
	}
}
