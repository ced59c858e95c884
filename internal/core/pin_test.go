package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/storage"
)

// failingDisk passes through to a real disk until fail is set; from then on
// every ReadPage returns errInjected.
type failingDisk struct {
	storage.Disk
	fail atomic.Bool
}

var errInjected = errors.New("injected read failure")

func (d *failingDisk) ReadPage(id storage.PageID, buf []byte) error {
	if d.fail.Load() {
		return errInjected
	}
	return d.Disk.ReadPage(id, buf)
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
		"I-Threshold": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodIThresh, MaxSize: maxSize(d)})
		},
		"I-Quad": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodIQuad, MaxSize: maxSize(d)})
		},
		"I-Auto": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodAuto})
		},
		"Tiled-LinearScan": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildTiles(d, p, BuildOptions{TileSide: 8})
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

// pinHandle is a store handle as the pin table drives it: a value index or
// the spatial store, live or snapshot.
type pinHandle struct {
	answers  func() (any, error) // a fixed set of queries, I/O statistics included
	snapshot func() pinHandle
	update   func(f field.Mutable, updates []SampleUpdate) (*UpdateResult, error)
	epoch    func() uint64
	close    func() error
}

func enginePinHandle(e Engine, queries []geom.Interval) pinHandle {
	return pinHandle{
		answers: func() (any, error) {
			out := make([]*Result, len(queries))
			for i, q := range queries {
				var err error
				if out[i], err = e.QueryContext(context.Background(), q); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
		snapshot: func() pinHandle { return enginePinHandle(e.AcquireSnapshot(), queries) },
		update: func(f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
			return e.ApplyUpdates(context.Background(), f, updates)
		},
		epoch: e.Epoch,
		close: e.Close,
	}
}

func spatialPinHandle(s *SpatialIndex, points []geom.Point) pinHandle {
	type answer struct {
		w  float64
		io storage.Stats
	}
	return pinHandle{
		answers: func() (any, error) {
			out := make([]answer, len(points))
			for i, pt := range points {
				var err error
				if out[i].w, out[i].io, err = s.PointQueryContext(context.Background(), pt); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
		snapshot: func() pinHandle { return spatialPinHandle(s.AcquireSnapshot(), points) },
		update: func(f field.Mutable, updates []SampleUpdate) (*UpdateResult, error) {
			// The spatial store runs second: the samples are in the field already.
			if _, err := applySamples(f, updates); err != nil {
				return nil, err
			}
			return s.ApplyUpdates(context.Background(), f, updates)
		},
		epoch: s.Epoch,
		close: s.Close,
	}
}

// TestPinnedSnapshots drives the one pin helper through every store that
// embeds it — each buildable row of the build matrix and the spatial store: a
// snapshot keeps answering at its pin, byte for byte, after a batch that moves
// cell intervals; its pin keeps the epoch alive until Close, which is
// idempotent; once every handle is closed an empty commit retires exactly the
// epochs the pin held back; and a snapshot used after that panics.
func TestPinnedSnapshots(t *testing.T) {
	type pinRow struct {
		name  string
		build func(f *grid.DEM, p *storage.Pager) (pinHandle, error)
	}
	var rows []pinRow
	for _, row := range buildMatrix(testDEM(t, 32, 0.7)) {
		if !row.buildable() {
			continue
		}
		rows = append(rows, pinRow{row.name, func(f *grid.DEM, p *storage.Pager) (pinHandle, error) {
			e, err := Build(context.Background(), f, p, row.opts)
			if err != nil {
				return pinHandle{}, err
			}
			return enginePinHandle(e, tiledTestQueries(f)), nil
		}})
	}
	rows = append(rows, pinRow{"Spatial", func(f *grid.DEM, p *storage.Pager) (pinHandle, error) {
		s, err := BuildSpatial(context.Background(), f, p)
		if err != nil {
			return pinHandle{}, err
		}
		// A lattice dense enough that the batch moves some of the answers.
		var points []geom.Point
		for x := 1.5; x < 32; x += 4 {
			for y := 1.5; y < 32; y += 4 {
				points = append(points, geom.Pt(x, y))
			}
		}
		return spatialPinHandle(s, points), nil
	}})
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := testDEM(t, 32, 0.7)
			pager := newPager()
			live, err := row.build(f, pager)
			if err != nil {
				t.Fatal(err)
			}
			before, err := live.answers()
			if err != nil {
				t.Fatal(err)
			}
			snap := live.snapshot()
			pinnedAt := snap.epoch()
			res, err := live.update(f, testUpdates(f, 48, 77))
			if errors.Is(err, ErrUpdatesUnsupported) {
				// I-Quad: nothing commits, so there is nothing to pin against.
				if err := snap.close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.EpochsRetired != 0 || live.epoch() != pinnedAt+1 || snap.epoch() != pinnedAt {
				t.Fatalf("batch retired %d epochs; live at %d, snapshot at %d, pinned at %d",
					res.EpochsRetired, live.epoch(), snap.epoch(), pinnedAt)
			}
			after, err := live.answers()
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(after, before) {
				t.Fatal("the batch changed no answer; the case is vacuous")
			}
			pinned, err := snap.answers()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pinned, before) {
				t.Fatal("snapshot answers moved with the live index")
			}
			for i := 0; i < 2; i++ {
				if err := snap.close(); err != nil {
					t.Fatalf("snapshot Close %d: %v", i+1, err)
				}
			}
			// Still open for business, and nothing pinned any more: the next
			// commit retires the pinned epoch and the one the batch made.
			if _, err := live.answers(); err != nil {
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
			snap.answers()
			t.Fatal("snapshot answered at a retired epoch")
		})
	}
}
