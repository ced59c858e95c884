package core

import (
	"context"
	"reflect"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
)

// regionBuilders is every execution path that fills Result.Regions from the
// shared vertex chunks: each method's solo fold, the per-run worker fold, and
// the tiled gather.
func regionBuilders() map[string]func(f field.Field) (Engine, error) {
	out := map[string]func(f field.Field) (Engine, error){}
	for _, row := range append(updatableRows, rowOf("I-Hilbert/workers=4", BuildOptions{Method: MethodIHilbert, Workers: 4})) {
		out[row.name] = func(f field.Field) (Engine, error) { return Build(context.Background(), f, newPager(), row.opts) }
	}
	return out
}

func cloneRegions(regions []geom.Polygon) []geom.Polygon {
	out := make([]geom.Polygon, len(regions))
	for i, pg := range regions {
		out[i] = pg.Clone()
	}
	return out
}

// TestRegionsDoNotAlias pins the contract of sharing vertex chunks: every
// region is capped at its own end, so appending to one copies it instead of
// writing over the vertices of the next.
func TestRegionsDoNotAlias(t *testing.T) {
	d := testDEM(t, 32, 0.6)
	vr := d.ValueRange()
	q := geom.Interval{Lo: vr.Lo + 0.3*vr.Length(), Hi: vr.Lo + 0.6*vr.Length()}
	for name, build := range regionBuilders() {
		e, err := build(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Regions) < 100 {
			t.Fatalf("%s: only %d regions; the query is too narrow to test aliasing", name, len(res.Regions))
		}
		want := cloneRegions(res.Regions)
		for i, pg := range res.Regions {
			grown := append(pg, geom.Pt(-1, -1))
			grown[0] = geom.Pt(-2, -2)
			if pg[0] == grown[0] {
				t.Fatalf("%s: region %d has spare capacity: append wrote in place", name, i)
			}
		}
		if !reflect.DeepEqual(res.Regions, want) {
			t.Fatalf("%s: appending to regions changed their neighbours", name)
		}
	}
}

// TestRegionsOutliveTheirQuery holds a Result across everything that could
// recycle its vertex storage if that storage were pooled or owned by the
// index: later queries solo and batched, an update batch, and Close.
func TestRegionsOutliveTheirQuery(t *testing.T) {
	vr := testDEM(t, 32, 0.6).ValueRange()
	q := geom.Interval{Lo: vr.Lo + 0.3*vr.Length(), Hi: vr.Lo + 0.6*vr.Length()}
	for name, build := range regionBuilders() {
		f := testDEM(t, 32, 0.6) // the update batch mutates it
		e, err := build(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		held, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := cloneRegions(held.Regions)
		check := func(after string) {
			t.Helper()
			if !reflect.DeepEqual(held.Regions, want) {
				t.Fatalf("%s: held regions changed after %s", name, after)
			}
		}
		for _, later := range testQueries(f) {
			if _, err := e.Query(later); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check("later queries")
		batch, _ := e.QueryBatch([]BatchQuery{{Query: q}, {Query: vr}, {Query: q}})
		for _, br := range batch {
			if br.Err != nil {
				t.Fatalf("%s: %v", name, br.Err)
			}
		}
		check("a batch")
		if _, err := e.ApplyUpdates(context.Background(), f, testUpdates(f, 64, 7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := e.Query(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("an update batch")
		if err := e.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("Close")
	}
}
