package storage_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
)

// faultDisk wraps a Disk and fails operations once armed. A read fault is
// torn: the run that crosses the budget copies the pages the budget still
// covers, then fails.
type faultDisk struct {
	storage.Disk
	failWrites bool
	failAllocs bool
	armed      bool
	budget     int // pages reads may still deliver while armed
	delivered  int // pages delivered by read calls that succeeded
}

var errInjected = errors.New("injected fault")

// arm makes reads fail once budget more pages have been delivered.
func (d *faultDisk) arm(budget int) { d.armed, d.budget, d.delivered = true, budget, 0 }

func (d *faultDisk) ReadRun(first storage.PageID, bufs [][]byte) error {
	if d.armed && len(bufs) > d.budget {
		d.Disk.ReadRun(first, bufs[:d.budget])
		d.budget = 0
		return errInjected
	}
	if err := d.Disk.ReadRun(first, bufs); err != nil {
		return err
	}
	d.budget -= len(bufs)
	d.delivered += len(bufs)
	return nil
}

func (d *faultDisk) WritePage(id storage.PageID, buf []byte) error {
	if d.failWrites {
		return errInjected
	}
	return d.Disk.WritePage(id, buf)
}

func (d *faultDisk) Alloc() (storage.PageID, error) {
	if d.failAllocs {
		return storage.InvalidPage, errInjected
	}
	return d.Disk.Alloc()
}

func newFaultPager(poolSize int) (*faultDisk, *storage.Pager) {
	fd := &faultDisk{Disk: storage.NewMemDisk(storage.DefaultPageSize)}
	return fd, storage.NewPager(fd, storage.DefaultDiskModel, poolSize)
}

func TestPagerPropagatesReadErrors(t *testing.T) {
	fd, p := newFaultPager(0)
	p.Alloc()
	fd.arm(0)
	if err := p.ReadRun(0, 0, func(storage.PageID, []byte) bool { return true }); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	// A failed read must not be charged.
	if st := p.Stats(); st.Reads != 0 {
		t.Fatalf("failed read counted: %+v", st)
	}
}

func TestPagerPropagatesWriteAndAllocErrors(t *testing.T) {
	fd, p := newFaultPager(0)
	p.Alloc()
	fd.failWrites, fd.failAllocs = true, true
	if err := p.WritePage(0, make([]byte, storage.DefaultPageSize)); !errors.Is(err, errInjected) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := p.Alloc(); !errors.Is(err, errInjected) {
		t.Fatalf("alloc err = %v", err)
	}
	if st := p.Stats(); st.Writes != 0 {
		t.Fatalf("failed write counted: %+v", st)
	}
}

func TestHeapFilePropagatesAllocFailure(t *testing.T) {
	fd, p := newFaultPager(0)
	fd.failAllocs = true
	if _, err := storage.NewHeapFile(p).Append([]byte("x")); !errors.Is(err, errInjected) {
		t.Fatalf("append err = %v", err)
	}
}

func TestPagerCacheServesDespiteDiskFault(t *testing.T) {
	// Once cached, a page stays readable even if the disk starts failing.
	fd, p := newFaultPager(4)
	p.Alloc()
	read := func() error { return p.ReadRun(0, 0, func(storage.PageID, []byte) bool { return true }) }
	if err := read(); err != nil {
		t.Fatal(err)
	}
	fd.arm(0)
	if err := read(); err != nil {
		t.Fatalf("cached read failed: %v", err)
	}
	if st := p.PoolShardStats()[0]; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

// faultField is a small terrain every engine row builds on.
func faultField(t *testing.T) *grid.DEM {
	t.Helper()
	f, err := grid.FromFunc(geom.Pt(0, 0), 1, 1, 48, 48, func(x, y float64) float64 {
		return 50 + 30*math.Sin(x/7)*math.Cos(y/5)
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestReadFaultMidRun injects one torn read into every read path over the
// single Disk.ReadRun: the fault fires on the last page an uninterrupted run
// of the same read would deliver. The read must return the injected error and
// charge no page the disk did not deliver — a failed fetch charges none of its
// run, and an aborted update batch publishes nothing.
func TestReadFaultMidRun(t *testing.T) {
	ctx := context.Background()
	// Each row stores what its read needs on p and returns the read, which
	// reports what it charged.
	for _, c := range []struct {
		name  string
		setup func(t *testing.T, p *storage.Pager) func() (storage.Stats, error)
	}{
		{"heap scan", func(t *testing.T, p *storage.Pager) func() (storage.Stats, error) {
			h := storage.NewHeapFile(p)
			rec := make([]byte, 120)
			for h.NumPages() < 3*64/2 { // more than one ReadRun chunk
				if _, err := h.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			return func() (storage.Stats, error) {
				qc := p.BeginQuery()
				err := h.ScanPagesCtx(qc, 0, h.NumPages()-1, func(storage.RID, []byte) bool { return true })
				return qc.Stats(), err
			}
		}},
		{"sidecar scan", func(t *testing.T, p *storage.Pager) func() (storage.Stats, error) {
			n := storage.SidecarEntriesPerPage(storage.DefaultPageSize) * 80
			lo, hi := make([]float64, n), make([]float64, n)
			for i := range lo {
				lo[i], hi[i] = float64(i), float64(i)+0.5
			}
			sc, err := storage.BuildIntervalSidecarWith(p, lo, hi, storage.SidecarCodecRaw)
			if err != nil {
				t.Fatal(err)
			}
			return func() (storage.Stats, error) {
				qc := p.BeginQuery()
				err := sc.ScanRange(qc, 0, n, func(int, []float64, []float64) bool { return true })
				return qc.Stats(), err
			}
		}},
		{"tree search", func(t *testing.T, p *storage.Pager) func() (storage.Stats, error) {
			entries := make([]rstar.Entry, 5000)
			for i := range entries {
				entries[i] = rstar.Entry{MBR: rstar.Interval1D(float64(i), float64(i)+2), Data: uint64(i)}
			}
			tree, err := rstar.BulkLoad(1, rstar.Params{PageSize: 512}, entries, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Persist(p); err != nil {
				t.Fatal(err)
			}
			return func() (storage.Stats, error) {
				qc := p.BeginQuery()
				err := tree.PagedSearchCtx(qc, rstar.Interval1D(1000, 3500), func(rstar.Entry) bool { return true })
				return qc.Stats(), err
			}
		}},
		{"point fetch", func(t *testing.T, p *storage.Pager) func() (storage.Stats, error) {
			f := faultField(t)
			eng, err := core.Build(ctx, f, p, core.BuildOptions{Method: core.MethodLinearScan})
			if err != nil {
				t.Fatal(err)
			}
			var ids []uint64
			for id := 0; id < f.NumCells(); id += 97 {
				ids = append(ids, uint64(id))
			}
			return func() (storage.Stats, error) {
				return eng.FetchCells(ctx, nil, ids, func(*field.Cell) bool { return true })
			}
		}},
		{"overlay staging", func(t *testing.T, p *storage.Pager) func() (storage.Stats, error) {
			f := faultField(t)
			eng, err := core.Build(ctx, f, p, core.BuildOptions{Method: core.MethodLinearScan})
			if err != nil {
				t.Fatal(err)
			}
			batch := func(k int) []core.SampleUpdate {
				var ups []core.SampleUpdate
				for s := k; s < f.NumSamples(); s += 211 {
					ups = append(ups, core.SampleUpdate{Sample: s, Value: f.SampleValue(s) + 1})
				}
				return ups
			}
			// A first batch loads the update state, so the read below stages
			// pages and nothing else.
			if _, err := eng.ApplyUpdates(ctx, f, batch(0)); err != nil {
				t.Fatal(err)
			}
			return func() (storage.Stats, error) {
				before, epoch, overlaid := p.Stats(), p.CurrentEpoch(), p.OverlaidPages()
				_, err := eng.ApplyUpdates(ctx, f, batch(5))
				if err != nil && (p.CurrentEpoch() != epoch || p.OverlaidPages() != overlaid) {
					t.Errorf("aborted batch moved the store: epoch %d → %d, %d → %d overlaid",
						epoch, p.CurrentEpoch(), overlaid, p.OverlaidPages())
				}
				return p.Stats().Sub(before), err
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// An uninterrupted run of the read on an identical store counts the
			// pages it delivers.
			fd, p := newFaultPager(0)
			read := c.setup(t, p)
			fd.delivered = 0
			if _, err := read(); err != nil {
				t.Fatal(err)
			}
			total := fd.delivered

			fd, p = newFaultPager(0)
			read = c.setup(t, p)
			fd.arm(total - 1)
			st, err := read()
			if !errors.Is(err, errInjected) {
				t.Fatalf("read over a torn run: %v, want the injected error", err)
			}
			if fd.delivered == 0 || fd.delivered >= total {
				t.Fatalf("the fault fired after %d of %d pages: not mid-read", fd.delivered, total)
			}
			t.Logf("fault after %d of %d pages; %d charged", fd.delivered, total, st.Reads)
			if st.Reads > fd.delivered {
				t.Fatalf("charged %d pages, the disk delivered %d", st.Reads, fd.delivered)
			}
		})
	}
}
