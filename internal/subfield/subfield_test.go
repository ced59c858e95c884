package subfield

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/grid"
	"fielddb/internal/sfc"
)

func TestCostModelPaperExample(t *testing.T) {
	// Figure 5 of the paper: Subfield 1 holds cells with intervals summing
	// to interval sizes 11+10+11+13 = 45 and subfield interval [20, 40]
	// (size 21). Cost before inserting c5 ≈ 0.466. Inserting c5 (size 13,
	// union size 31) gives ≈ 0.534 > 0.466, so c5 starts a new subfield.
	cm := DefaultCostModel
	sf := geom.Interval{Lo: 20, Hi: 40}
	sum := 45.0
	ca := cm.Cost(sf, sum)
	if math.Abs(ca-21.0/45) > 1e-12 {
		t.Fatalf("Ca = %g, want %g", ca, 21.0/45)
	}
	union := geom.Interval{Lo: 20, Hi: 50}
	cb := cm.Cost(union, sum+13)
	if math.Abs(cb-31.0/58) > 1e-12 {
		t.Fatalf("Cb = %g, want %g", cb, 31.0/58)
	}
	if ca > cb {
		t.Fatal("paper example would have merged c5")
	}
}

func TestCostModelEdgeCases(t *testing.T) {
	cm := DefaultCostModel
	// Constant-value interval has size Epsilon = 1.
	if got := cm.Size(geom.Interval{Lo: 5, Hi: 5}); got != 1 {
		t.Fatalf("constant interval size = %g", got)
	}
	if got := cm.Size(geom.EmptyInterval()); got != 0 {
		t.Fatalf("empty interval size = %g", got)
	}
	if got := cm.Cost(geom.Interval{Lo: 0, Hi: 1}, 0); got != 0 {
		t.Fatalf("cost with zero denominator = %g", got)
	}
}

func refsFromIntervals(ivs []geom.Interval) []CellRef {
	refs := make([]CellRef, len(ivs))
	for i, iv := range ivs {
		refs[i] = CellRef{ID: field.CellID(i), Key: uint64(i), Interval: iv}
	}
	return refs
}

func TestBuildGreedyMergesSimilarValues(t *testing.T) {
	// Ten nearly identical intervals followed by ten far-away ones must
	// produce exactly two subfields.
	var ivs []geom.Interval
	for i := 0; i < 10; i++ {
		ivs = append(ivs, geom.Interval{Lo: 10 + float64(i)*0.01, Hi: 11 + float64(i)*0.01})
	}
	for i := 0; i < 10; i++ {
		ivs = append(ivs, geom.Interval{Lo: 500 + float64(i)*0.01, Hi: 501 + float64(i)*0.01})
	}
	refs := refsFromIntervals(ivs)
	groups := BuildGreedy(refs, DefaultCostModel)
	if err := Validate(refs, groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	if groups[0].Len() != 10 || groups[1].Len() != 10 {
		t.Fatalf("group sizes %d/%d", groups[0].Len(), groups[1].Len())
	}
}

func TestBuildGreedyPaperSequence(t *testing.T) {
	// The exact sequence of Figure 5: cell intervals (min, max) in Hilbert
	// order; c5 = [20, 50] must start Subfield 2.
	ivs := []geom.Interval{
		{Lo: 30, Hi: 40}, // c1, size 11
		{Lo: 25, Hi: 34}, // c2, size 10
		{Lo: 20, Hi: 30}, // c3, size 11
		{Lo: 28, Hi: 40}, // c4, size 13
		{Lo: 38, Hi: 50}, // c5, size 13 — the paper's split point
	}
	refs := refsFromIntervals(ivs)
	groups := BuildGreedy(refs, DefaultCostModel)
	if err := Validate(refs, groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("expected a split before c5, got %+v", groups)
	}
	if groups[0].End != 4 {
		t.Fatalf("subfield 1 covers refs[0:%d], want [0:4)", groups[0].End)
	}
}

func TestBuildGreedySingleCell(t *testing.T) {
	refs := refsFromIntervals([]geom.Interval{{Lo: 1, Hi: 2}})
	groups := BuildGreedy(refs, DefaultCostModel)
	if len(groups) != 1 || groups[0].Len() != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	if BuildGreedy(nil, DefaultCostModel) != nil {
		t.Fatal("empty refs produced groups")
	}
}

func TestLinearizeOrdersByHilbert(t *testing.T) {
	d, err := grid.FromFunc(geom.Pt(0, 0), 1, 1, 8, 8, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sfc.NewHilbert(12, 2)
	refs, err := Linearize(d, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 64 {
		t.Fatalf("got %d refs", len(refs))
	}
	seen := map[field.CellID]bool{}
	for i := 1; i < len(refs); i++ {
		if refs[i-1].Key > refs[i].Key {
			t.Fatal("refs not sorted by key")
		}
	}
	for _, r := range refs {
		if seen[r.ID] {
			t.Fatalf("cell %d appears twice", r.ID)
		}
		seen[r.ID] = true
		if r.Interval.IsEmpty() {
			t.Fatalf("cell %d has empty interval", r.ID)
		}
	}
	// Consecutive refs must be spatially adjacent cells (Hilbert property):
	// centers at distance exactly 1 on the unit grid.
	var a, b field.Cell
	for i := 1; i < len(refs); i++ {
		d := d.Cell(refs[i-1].ID, &a).Center().Dist(d.Cell(refs[i].ID, &b).Center())
		if math.Abs(d-1) > 1e-9 {
			t.Fatalf("refs %d and %d are not adjacent (dist %g)", i-1, i, d)
		}
	}
}

func TestGreedyContinuityYieldsFewGroups(t *testing.T) {
	// On a smooth field, subfields must be dramatically fewer than cells —
	// the whole point of the method.
	d, _ := grid.FromFunc(geom.Pt(0, 0), 1, 1, 32, 32, func(x, y float64) float64 {
		return math.Sin(x/8) + math.Cos(y/8)
	})
	h, _ := sfc.NewHilbert(12, 2)
	refs, _ := Linearize(d, h)
	groups := BuildGreedy(refs, DefaultCostModel)
	if err := Validate(refs, groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) >= len(refs)/4 {
		t.Fatalf("%d groups for %d cells — no compression", len(groups), len(refs))
	}
}

func TestValidateCatchesBadPartitions(t *testing.T) {
	refs := refsFromIntervals([]geom.Interval{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}})
	if err := Validate(refs, []Group{{Start: 0, End: 1, Interval: geom.Interval{Lo: 0, Hi: 1}}}); err == nil {
		t.Fatal("gap not caught")
	}
	if err := Validate(refs, []Group{
		{Start: 0, End: 2, Interval: geom.Interval{Lo: 0, Hi: 1}},
	}); err == nil {
		t.Fatal("non-covering interval not caught")
	}
	if err := Validate(refs, []Group{
		{Start: 0, End: 0, Interval: geom.Interval{Lo: 0, Hi: 1}},
		{Start: 0, End: 2, Interval: geom.Interval{Lo: 0, Hi: 3}},
	}); err == nil {
		t.Fatal("empty group not caught")
	}
}

func TestGreedyCostNeverIncreasesWithinGroup(t *testing.T) {
	// Property: replaying the greedy construction, the cost after each
	// accepted append is strictly lower than before (Ca > Cb).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		ivs := make([]geom.Interval, n)
		v := rng.Float64() * 100
		for i := range ivs {
			v += rng.NormFloat64() * 5
			ivs[i] = geom.Interval{Lo: v, Hi: v + rng.Float64()*10}
		}
		refs := refsFromIntervals(ivs)
		groups := BuildGreedy(refs, DefaultCostModel)
		if Validate(refs, groups) != nil {
			return false
		}
		cm := DefaultCostModel
		for _, g := range groups {
			iv := refs[g.Start].Interval
			sum := cm.Size(iv)
			for i := g.Start + 1; i < g.End; i++ {
				union := iv.Union(refs[i].Interval)
				ca := cm.Cost(iv, sum)
				cb := cm.Cost(union, sum+cm.Size(refs[i].Interval))
				if ca <= cb {
					return false // this append should have been rejected
				}
				iv = union
				sum += cm.Size(refs[i].Interval)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
