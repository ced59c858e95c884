package approx

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fielddb/internal/geom"
)

// sortedByReference is the comparison sort sortedBy replaced: indices by key,
// ties by index.
func sortedByReference(ivs []geom.Interval, key func(geom.Interval) float64) []int {
	idx := make([]int, len(ivs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := key(ivs[idx[a]]), key(ivs[idx[b]])
		if ka != kb {
			return ka < kb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// tiedIntervals draws n intervals whose endpoints repeat often, straddle zero
// and include −0, +0, infinities' neighbours and subnormals.
func tiedIntervals(rng *rand.Rand, n int) []geom.Interval {
	pool := []float64{math.Copysign(0, -1), 0, 1, -1, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 0.1, -0.1, 1e300, -1e-300}
	for range 20 {
		pool = append(pool, rng.NormFloat64()*1e3)
	}
	ivs := make([]geom.Interval, n)
	for i := range ivs {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			a, b = rng.NormFloat64()*100, rng.NormFloat64()*100
		}
		ivs[i] = geom.Interval{Lo: min(a, b), Hi: max(a, b)}
	}
	return ivs
}

// TestSortedByMatchesComparisonSort: the radix sort yields the comparison
// sort's total order — key, then index — on both endpoints, at sizes that do
// and do not reach every digit.
func TestSortedByMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 65536} {
		ivs := tiedIntervals(rng, n)
		for name, key := range map[string]func(geom.Interval) float64{
			"lo": func(iv geom.Interval) float64 { return iv.Lo },
			"hi": func(iv geom.Interval) float64 { return iv.Hi },
		} {
			if got, want := sortedBy(ivs, key), sortedByReference(ivs, key); !slices.Equal(got, want) {
				t.Fatalf("n=%d by %s: the radix sort differs from the comparison sort", n, name)
			}
		}
	}
}

// BenchmarkSortedBy sorts the 256×256 fixture's worth of interval tops, drawn
// over its value range.
func BenchmarkSortedBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ivs := make([]geom.Interval, 65536)
	for i := range ivs {
		lo := 200 + rng.Float64()*1200
		ivs[i] = geom.Interval{Lo: lo, Hi: lo + rng.Float64()*20}
	}
	hi := func(iv geom.Interval) float64 { return iv.Hi }
	b.Run("radix", func(b *testing.B) {
		for range b.N {
			sortedBy(ivs, hi)
		}
	})
	b.Run("sort.Slice", func(b *testing.B) {
		for range b.N {
			sortedByReference(ivs, hi)
		}
	})
}
