package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile for
// it to be more than a description of a handful of outliers.
const tailSamples = 10

// highestPercentile returns the highest whole percentile, capped at want,
// that still has at least tailSamples of n samples beyond it. With 120
// samples that is p91; asking for p90 gives p90, asking for p95 gives p91.
// It returns 0 when even the median has no such tail (n < 2·tailSamples).
func highestPercentile(n, want int) int {
	if n < 2*tailSamples {
		return 0
	}
	p := 100 * (n - tailSamples) / n
	if p > want {
		p = want
	}
	return p
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule, 0 for an empty slice.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// latencies collects per-operation wall times of one measured pass.
type latencies []time.Duration

// ms returns the samples in milliseconds, sorted ascending.
func (l latencies) ms() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// tail reports the median and the want-th percentile in milliseconds. When
// the sample cannot support want (fewer than tailSamples beyond it) the
// highest supported percentile stands in, and used says which one that was.
func (l latencies) tail(want int) (p50, pTail float64, used int) {
	s := l.ms()
	used = highestPercentile(len(s), want)
	if used == 0 {
		used = 50
	}
	return percentile(s, 50), percentile(s, used), used
}

// median returns the median of vals (mean of the middle two for even n).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio returns num/den, 0 when den is 0 — the value a layer reports on a
// workload that never reaches it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
