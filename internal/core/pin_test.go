package core

import (
	"errors"
	"sync/atomic"
	"testing"

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
		"Tiled-LinearScan": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildIx(d, p, BuildOptions{Method: MethodLinearScan, TileSide: 8})
		},
		"I-IntTree": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildFiltered(d, p, intervalTreeFilter(d))
		},
		"IP-Row": func(d *grid.DEM, p *storage.Pager) (Index, error) {
			return buildFiltered(d, p, ipRowFilter(d))
		},
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
