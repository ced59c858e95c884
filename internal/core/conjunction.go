package core

import (
	"context"
	"fmt"
	"sync"

	"fielddb/internal/geom"
)

// ConjunctiveResult is the outcome of a multi-field value query such as the
// paper's motivating ocean example: "find regions where the temperature is
// between 20° and 25° AND the salinity is between 12% and 13%".
type ConjunctiveResult struct {
	// Regions are the polygons satisfying every condition simultaneously.
	Regions []geom.Polygon
	// Area is the total area of Regions.
	Area float64
	// PerField carries each field's individual query result.
	PerField []*Result
}

// ConjunctiveQueryContext runs one value query per (index, interval) pair
// over fields that share the same spatial domain and intersects the answer
// regions pairwise. Answer regions are convex (they come from linear
// interpolation over triangles), so the intersection uses convex clipping.
//
// The number of conditions must match the number of indexes and be at least
// one; with a single condition it degenerates to Index.Query. Conditions whose
// index is an Engine poll ctx during refinement, so one cancel stops every
// condition's scan (any other Index ignores ctx). All per-condition
// goroutines are joined before returning.
func ConjunctiveQueryContext(ctx context.Context, indexes []Index, intervals []geom.Interval) (*ConjunctiveResult, error) {
	if len(indexes) == 0 || len(indexes) != len(intervals) {
		return nil, fmt.Errorf("core: need matching indexes and intervals, got %d/%d",
			len(indexes), len(intervals))
	}
	// Each condition targets its own index (and pager), and queries are
	// per-query-context based, so the per-field queries run concurrently;
	// intersection then folds the results in condition order, keeping the
	// answer deterministic.
	results := make([]*Result, len(indexes))
	errs := make([]error, len(indexes))
	var wg sync.WaitGroup
	for i, idx := range indexes {
		wg.Add(1)
		go func(i int, idx Index) {
			defer wg.Done()
			if cq, ok := idx.(Engine); ok {
				results[i], errs[i] = cq.QueryContext(ctx, intervals[i])
			} else {
				results[i], errs[i] = idx.Query(intervals[i])
			}
		}(i, idx)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: condition %d: %w", i, err)
		}
	}
	out := &ConjunctiveResult{}
	var regions []geom.Polygon
	for i, res := range results {
		out.PerField = append(out.PerField, res)
		if i == 0 {
			regions = res.Regions
			continue
		}
		regions = intersectRegionSets(regions, res.Regions)
		if len(regions) == 0 {
			// Later PerField entries are still recorded above; the region
			// set can only stay empty from here on.
			continue
		}
	}
	out.Regions = regions
	for _, pg := range regions {
		out.Area += pg.Area()
	}
	return out, nil
}

// intersectRegionSets intersects two sets of convex polygons pairwise,
// pruning by bounding box first.
func intersectRegionSets(a, b []geom.Polygon) []geom.Polygon {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	type boxed struct {
		pg geom.Polygon
		bb geom.Rect
	}
	bs := make([]boxed, 0, len(b))
	for _, pg := range b {
		bs = append(bs, boxed{pg: pg, bb: pg.Bounds()})
	}
	var out []geom.Polygon
	for _, pa := range a {
		ba := pa.Bounds()
		for _, pb := range bs {
			if !ba.Intersects(pb.bb) {
				continue
			}
			if x := geom.ConvexIntersect(pa, pb.pg); x != nil && x.Area() > 1e-12 {
				out = append(out, x)
			}
		}
	}
	return out
}
