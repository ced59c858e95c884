package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/grid"
)

// tiledState is a tiled index saved to a file and reopened from it; the
// in-memory builder is gone by the time anything is measured.
type tiledState struct {
	f                    *grid.DEM
	idx                  *fielddb.StoredIndex
	path                 string
	fileBytes            int64
	warmPages, warmSimMs float64
}

func (s *tiledState) Close() error {
	if s == nil || s.idx == nil {
		return nil
	}
	err := s.idx.Close()
	os.Remove(s.path)
	return err
}

// openTiled is tiled-stored's timed set-up: generate the large terrain,
// build LinearScan tiles with packed sidecars, save, reopen with a pool an
// eighth of the file (so the index is larger than cache and FileDisk reads
// happen) and one refinement worker per core, warm up.
func openTiled(sz sizing, dir string) (*tiledState, error) {
	f, err := bench.FixtureTerrain(sz.tiledSide, 0)
	if err != nil {
		return nil, err
	}
	db, err := fielddb.Open(f, fielddb.Options{
		Method: fielddb.LinearScan, TileSide: sz.tileSide, SidecarCodec: "packed",
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("tiled-%d.fidx", os.Getpid()))
	err = db.SaveIndex(path)
	db.Close()
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	idx, err := fielddb.OpenIndexWith(path, fielddb.OpenIndexOptions{
		PoolPages: sz.tiledPool, Workers: runtime.NumCPU(),
	})
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	s := &tiledState{f: f, idx: idx, path: path, fileBytes: st.Size()}
	s.warmPages, s.warmSimMs, err = warmUp(idx, fixtureRotation(f.ValueRange(), sz.tiledPerSel))
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// fileReadBytes is how many bytes this process has read through read
// system calls (rchar of /proc/self/io), or -1 where the kernel does not
// say. StoredIndex exports no pool counters, so the pool's misses on
// tiled-stored are measured from outside as the bytes its FileDisk read.
func fileReadBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	var rchar int64
	if _, err := fmt.Sscanf(string(data), "rchar: %d", &rchar); err != nil {
		return -1
	}
	return rchar
}

// runTiled is the scale-out read path: tile prune, scatter over the worker
// pool, column decode, pool misses on a real file.
func runTiled(cfg config) (*outcome, error) {
	sz := cfg.sizing()
	out := newOutcome()
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	st, ss, err := timeSetups(setups, func() (*tiledState, error) { return openTiled(sz, cfg.outDir) })
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out.warmPages, out.warmSimMs = st.warmPages, st.warmSimMs

	rot := queryRotation(st.f.ValueRange(), sz.tiledPerSel, cfg.seed)
	cells := newOracle(st.f)
	exp := cells.answers(rot)

	if !cfg.trace {
		setupMetrics(out, ss, st.fileBytes, st.f.NumCells())
		// A tiled query is several kernel runs long: calibrate after each.
		cal := &calibration{every: 1}
		ps := queryPass(st.idx, rot, exp, nil, cal, out, wholeRotations(cfg.passLength(1)))
		timing(out, ps.lat, ps.elapsed, cal)
		ps.costs(out)
		return out, nil
	}

	before := st.idx.Metrics()
	read0 := fileReadBytes()
	tr := newTracing()
	ref, traced := alternate(st.idx, rot, exp, tr, out, cfg.passLength(0.75))
	read1 := fileReadBytes()
	after := st.idx.Metrics()

	sum := tr.rec.summarize()
	spanRows(out, sum, len(traced.lat))
	overheadRows(out, sum, &ref, &traced)
	ref.add(traced)
	engineRows(out, &ref, before, after, runtime.NumCPU())
	if read0 >= 0 && read1 >= 0 {
		misses := float64(read1-read0) / 4096
		out.metrics["storage.pool_hit_ratio"] = 1 - ratio(misses, float64(ref.pages))
	}
	if err := directRows(out, cfg, st.f, nil, rot, exp, cells); err != nil {
		return nil, err
	}
	return out, finishTrace(out, cfg, tr, sum)
}
