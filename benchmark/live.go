package main

import (
	"context"
	"sync/atomic"
	"time"

	"fielddb"
)

// updatePass is what the writer of one mixed pass measured.
type updatePass struct {
	lat          latencies // from the due time
	pagesWritten int
	cellsTouched int
	regrouped    int
	retired      uint64
	failed       []error
}

// mixedPass runs the writer and the reader side by side: the writer commits
// batches open-loop at rate per second and times each from the moment it was
// due; the reader runs rot closed-loop until the writer has finished. The
// reader's answers are not checked here — the field moves under it — but on
// the quiesced final state (verifyFinal).
func mixedPass(st *liveState, rot []fielddb.Interval, batches [][]fielddb.SampleUpdate, rate int,
	tr *tracing, updCur *atomic.Int64, cal *calibration, out *outcome) (passStats, updatePass) {
	var up updatePass
	var writerDone atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer writerDone.Store(true)
		ctx := context.Background()
		start := time.Now()
		for i, batch := range batches {
			due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
			time.Sleep(time.Until(due))
			root := -1
			if tr != nil {
				root = tr.rec.begin("fielddb.update", -1, int(tr.ops.Add(1)))
				updCur.Store(int64(root))
			}
			stats, err := st.db.UpdateSamples(ctx, batch)
			now := time.Now()
			if tr != nil {
				updCur.Store(-1)
				tr.rec.end(root, 0, 0)
			}
			up.lat = append(up.lat, now.Sub(due))
			if err != nil {
				up.failed = append(up.failed, err)
				continue
			}
			up.pagesWritten += stats.PagesWritten + stats.IndexPagesWritten + stats.SpatialPagesWritten
			up.cellsTouched += stats.CellsTouched
			up.retired += stats.EpochsRetired
			if stats.Regrouped {
				up.regrouped++
			}
		}
	}()
	ps := queryPass(st.db, rot, nil, tr, cal, out, func(bool, time.Duration) bool { return writerDone.Load() })
	<-finished
	out.attempted += len(batches)
	for _, err := range up.failed {
		out.fail(err)
	}
	return ps, up
}

// verifyFinal re-verifies the whole rotation against a fresh oracle once the
// writer has stopped, and returns what that quiesced rotation cost.
func verifyFinal(st *liveState, rot []fielddb.Interval, out *outcome) passStats {
	return queryPass(st.db, rot, newOracle(st.f).answers(rot), nil, nil, out, oneRotation)
}

// runLive is writes beside reads.
func runLive(cfg config) (*outcome, error) {
	sz := cfg.sizing()
	out := newOutcome()
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	st, ss, err := timeSetups(setups, func() (*liveState, error) { return openLive(sz, soloOptions) })
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out.warmPages, out.warmSimMs = st.warmPages, st.warmSimMs

	vr := st.f.ValueRange()
	rot := queryRotation(vr, sz.perSel, cfg.seed)
	stream := func(share float64, salt int64) [][]fielddb.SampleUpdate {
		n := int(cfg.seconds * share * float64(sz.updateRate))
		if n < 2 {
			n = 2
		}
		return updateStream(st.f.NumSamples(), vr, n, cfg.seed+salt)
	}

	if !cfg.trace {
		size, err := indexFileBytes(st.db, cfg.outDir)
		if err != nil {
			return nil, err
		}
		setupMetrics(out, ss, size, st.f.NumCells())
		cal := &calibration{every: calEvery}
		ps, up := mixedPass(st, rot, stream(1, 0), sz.updateRate, nil, nil, cal, out)
		timing(out, ps.lat, ps.elapsed, cal)
		// Which epoch a query of the mixed pass met depends on the clock, and
		// the writer's allocations cannot be told from the reader's. The cost
		// metrics are therefore those of the rotation on the quiesced final
		// state, after every batch has landed, where they repeat exactly.
		final := verifyFinal(st, rot, out)
		final.costs(out)
		n := ps.queries()
		out.notef("%d update batches beside the reader; during them %.2f pages and %.0f process-wide allocations per reader query",
			len(up.lat), float64(ps.pages)/n, float64(ps.mem.mallocs)/n)
		return out, nil
	}

	ref, refUp := mixedPass(st, rot, stream(0.4, 0), sz.updateRate, nil, nil, nil, out)
	before := st.db.Metrics()
	tr := newTracing()
	var updCur atomic.Int64
	updCur.Store(-1)
	st.db.SetTracer(fielddb.TracerFunc(func(qt *fielddb.QueryTrace) {
		if qt.Kind == "update" {
			tr.rec.engine(int(updCur.Load()), qt)
			return
		}
		tr.rec.engine(int(tr.cur.Load()), qt)
	}))
	traced, trUp := mixedPass(st, rot, stream(0.4, 1), sz.updateRate, tr, &updCur, nil, out)
	st.db.SetTracer(nil)
	after := st.db.Metrics()
	verifyFinal(st, rot, out)

	sum := tr.rec.summarize()
	spanRows(out, sum, len(traced.lat))
	engineRows(out, &traced, before.Engine, after.Engine, 1)
	poolRows(out, before.ValuePool, after.ValuePool)
	overheadRows(out, sum, &ref, &traced)

	m := out.metrics
	all := append(append(latencies(nil), refUp.lat...), trUp.lat...)
	var used int
	m["update_p50_ms"], m["update_p90_ms"], used = all.tail(90)
	out.notef("%d update batches; update_p90_ms is p%d, the highest percentile with %d samples beyond it", len(all), used, tailSamples)
	n := float64(len(all))
	m["pages_written_per_update"] = float64(refUp.pagesWritten+trUp.pagesWritten) / n
	m["core.update_cells_touched"] = float64(refUp.cellsTouched+trUp.cellsTouched) / n
	m["core.regroup_share"] = float64(refUp.regrouped+trUp.regrouped) / n
	m["storage.epochs_retired"] = float64(refUp.retired + trUp.retired)
	updates := len(trUp.lat)
	m["core.update_patch_us"] = sum.perOpUs("patch", updates)
	m["core.update_maintain_us"] = sum.perOpUs("index-maintain", updates)
	m["core.update_other_us"] = sum.perOpUs("fielddb.update", updates) + sum.perOpUs("engine.update", updates)

	final := newOracle(st.f)
	if err := directRows(out, cfg, st.f, st.db, rot, final.answers(rot), final); err != nil {
		return nil, err
	}
	return out, finishTrace(out, cfg, tr, sum)
}
