package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/geom"
)

// Everything the program under test receives is generated here from the
// seed: value-query rotations, the HTTP request list and the update stream.
// The same seed gives byte-identical lists (inputs_test.go).
//
// Query positions are stratified: the value range is cut into as many strata
// as there are queries of one selectivity, stratum i always holds query i,
// and the seed only moves the query around the middle of its stratum and
// shuffles the order. A rotation drawn uniformly instead (workload.Queries)
// moves pages_per_query by several percent from seed to seed on this
// terrain, because a 1 % band costs 50 pages in the tail of the height
// histogram and 400 at its mode; stratifying keeps every seed on the same
// mix of cheap and dear bands, so the spread across seeds stays inside the
// metric's bound.

// selectivities are the Qinterval widths of the repo's gated suite.
var selectivities = bench.Selectivities

// jitterShare is the middle part of a stratum the seed moves a query in.
// With the whole stratum, the 16-per-selectivity rotation of tiled-stored
// still moved pages_per_query by 4.5 % across seeds. The served pool has a
// third of its value requests on one interval, and gets a quarter of that.
const (
	jitterShare     = 0.1
	poolJitterShare = jitterShare / 4
)

// stratified returns n intervals of relative width sel, interval i around
// the middle of stratum i of the positions that keep it within vr.
func stratified(vr fielddb.Interval, sel float64, n int, jitter float64, rng *rand.Rand) []fielddb.Interval {
	width := sel * vr.Length()
	room := vr.Length() - width
	out := make([]fielddb.Interval, n)
	for i := range out {
		at := float64(i) + 0.5 + jitter*(rng.Float64()-0.5)
		lo := vr.Lo + at/float64(n)*room
		out[i] = fielddb.Interval{Lo: lo, Hi: lo + width}
	}
	return out
}

// queryRotation is the closed-loop value-query rotation: perSel intervals at
// each selectivity, shuffled by the seed.
func queryRotation(vr fielddb.Interval, perSel int, seed int64) []fielddb.Interval {
	rng := rand.New(rand.NewSource(seed))
	var out []fielddb.Interval
	for _, sel := range selectivities {
		out = append(out, stratified(vr, sel, perSel, jitterShare, rng)...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fixtureRotation is the rotation `make bench-compare` measures
// (bench.FixtureQueries), used as every set-up's warm-up so its page counts
// can be checked against BENCH_BASELINE.json whatever the seed.
func fixtureRotation(vr fielddb.Interval, perSel int) []fielddb.Interval {
	var out []fielddb.Interval
	for _, sel := range selectivities {
		out = append(out, bench.FixtureQueries(vr, sel, perSel)...)
	}
	return out
}

// reqClass is what a served request asks for; the classes use refinement
// differently (counts only, streamed geometry, no refinement at all).
type reqClass int

const (
	classRange reqClass = iota
	classGeometryJSON
	classGeometryBin
	classPoint
	classAggregate
	numClasses
)

var classNames = [numClasses]string{"range", "geometry_json", "geometry_bin", "point", "aggregate"}

func (c reqClass) String() string { return classNames[c] }

// request is one generated HTTP request. Path is relative to the server's
// base URL; Interval indexes the pool for value requests and is -1 for
// points.
type request struct {
	Class    reqClass
	Interval int
	Point    fielddb.Point
	Path     string
	Binary   bool
}

// requestIntervals is the size of the served interval pool.
const requestIntervals = 32

// requestPool draws the served interval pool. Entry i is also popularity
// rank i of the zipf mix, so the pool fixes which width and which part of
// the value range is hot: the seed moves an interval inside its stratum but
// never makes a cheap band the hot one in one run and a dear band in the
// next.
func requestPool(vr fielddb.Interval, rng *rand.Rand) []fielddb.Interval {
	pool := make([]fielddb.Interval, requestIntervals)
	perSel := (requestIntervals + len(selectivities) - 1) / len(selectivities)
	for s, sel := range selectivities {
		ivs := stratified(vr, sel, perSel, poolJitterShare, rng)
		for k := 0; k*len(selectivities)+s < requestIntervals; k++ {
			// Neighbouring ranks land far apart in the value range: rank
			// order walks the strata with a stride coprime to their count.
			pool[k*len(selectivities)+s] = ivs[(k*7+3)%perSel]
		}
	}
	return pool
}

// zipfQuotas shares n requests out over the pool's ranks in proportion to
// (1+rank)^-1.3, by largest remainder, so that every seed asks for rank k
// exactly as often: drawing ranks at random instead moved the mean pages of
// 560 value requests by 2–3 % from seed to seed.
func zipfQuotas(n int) []int {
	weights := make([]float64, requestIntervals)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -1.3)
		total += weights[k]
	}
	quotas := make([]int, requestIntervals)
	order := make([]int, requestIntervals)
	rest := make([]float64, requestIntervals)
	given := 0
	for k, w := range weights {
		share := float64(n) * w / total
		quotas[k] = int(share)
		rest[k] = share - float64(quotas[k])
		order[k] = k
		given += quotas[k]
	}
	sort.SliceStable(order, func(i, j int) bool { return rest[order[i]] > rest[order[j]] })
	for _, k := range order[:n-given] {
		quotas[k]++
	}
	return quotas
}

// requestList generates n requests: 1/8 point, 1/5 aggregate, 1/16 range
// with geometry (alternating JSON and FWB1), the rest plain JSON range.
// Class counts are exact; each class spreads its requests zipf(1.3) over the
// pool by quota; the seed shuffles the order.
func requestList(field string, vr fielddb.Interval, bounds geom.Rect, n int, seed int64) ([]request, []fielddb.Interval) {
	rng := rand.New(rand.NewSource(seed))
	pool := requestPool(vr, rng)
	reqs := make([]request, 0, n)
	value := func(class reqClass, k int) request {
		iv := pool[k]
		r := request{Class: class, Interval: k}
		switch class {
		case classAggregate:
			r.Path = fmt.Sprintf("/v1/fields/%s/aggregate?lo=%g&hi=%g", field, iv.Lo, iv.Hi)
		case classRange:
			r.Path = fmt.Sprintf("/v1/fields/%s/range?lo=%g&hi=%g", field, iv.Lo, iv.Hi)
		default:
			r.Path = fmt.Sprintf("/v1/fields/%s/range?lo=%g&hi=%g&geometry=1", field, iv.Lo, iv.Hi)
			r.Binary = class == classGeometryBin
		}
		return r
	}
	for i := 0; i < n/8; i++ {
		p := fielddb.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
		reqs = append(reqs, request{
			Class: classPoint, Interval: -1, Point: p,
			Path: fmt.Sprintf("/v1/fields/%s/point?x=%g&y=%g", field, p.X, p.Y),
		})
	}
	spread := func(count int, class func(i int) reqClass) {
		i := 0
		for k, quota := range zipfQuotas(count) {
			for ; quota > 0; quota-- {
				reqs = append(reqs, value(class(i), k))
				i++
			}
		}
	}
	spread(n/5, func(int) reqClass { return classAggregate })
	spread(n/16, func(i int) reqClass { return classGeometryJSON + reqClass(i%2) })
	spread(n-len(reqs), func(int) reqClass { return classRange })
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, pool
}

// updateBatchSize is the number of samples one UpdateSamples call changes,
// as in the repo's UpdateLoad suite.
const updateBatchSize = bench.UpdateBatchSize

// updateStream generates the writer's batches. Sample indices and new
// values are both uniform — over the field's samples and over its original
// value range, so the stream re-encodes cells and maintains the index without
// blowing the value range up — and both stratified: the batches touch
// batches×16 evenly spread samples and set them to evenly spread values.
// Which value goes to which sample is part of the fixture, like the terrain;
// the seed shuffles the order the updates arrive in and moves each value
// inside its stratum. The index an update leaves behind depends on the
// field's state alone, so every seed ends on nearly the same state by a
// different road. With sample-to-value pairs drawn per seed the final
// state's pages_per_query ran from 695 to 851.
func updateStream(samples int, vr fielddb.Interval, batches int, seed int64) [][]fielddb.SampleUpdate {
	n := batches * updateBatchSize
	valueOf := rand.New(rand.NewSource(bench.FixtureSeed)).Perm(n)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	out := make([][]fielddb.SampleUpdate, batches)
	for b := range out {
		batch := make([]fielddb.SampleUpdate, updateBatchSize)
		for i := range batch {
			k := order[b*updateBatchSize+i]
			value := (float64(valueOf[k]) + 0.5 + jitterShare*(rng.Float64()-0.5)) / float64(n)
			batch[i] = fielddb.SampleUpdate{
				Sample: int((float64(k) + 0.5) / float64(n) * float64(samples)),
				Value:  vr.Lo + value*vr.Length(),
			}
		}
		out[b] = batch
	}
	return out
}
