package main

import (
	"math/rand"
	"sort"
	"time"
)

// Machine-speed normalisation.
//
// This box is shared, and its speed drifts: sixteen back-to-back 8 s runs of
// solo-hilbert, same code and same queries, gave a p50 anywhere from 3.13 to
// 4.45 ms, far outside a 10 % bound, and a plain compute loop timed beside
// them drifted in step. So every end-to-end pass interleaves a fixed
// calibration kernel with the work it measures — a few milliseconds of the
// kernel after every few operations, on the goroutine that issues them — and
// reports wall-clock metrics at a reference machine speed: measured time ×
// kernelNominalMs ÷ the kernel's median during the pass. In the same
// sixteen runs p50 ÷ kernel median stayed within 0.946–1.025.
//
// The kernel is the benchmark's own code and calls nothing in the
// repository, so no change to the program under test can move it. It
// allocates many small slices, does float arithmetic over them and sorts,
// because that is what the engine does; a kernel that did not allocate
// tracked the engine's slowdowns half as well (ratio 1.12–1.42).
//
// The raw, unnormalised values and the factor are printed with every pass.

// kernelNominalMs is the reference speed: the kernel's usual median on the
// box the README's numbers were taken on.
const kernelNominalMs = 4.0

var kernelSink [][]float64

// kernel is one fixed unit of work.
func kernel() {
	rng := rand.New(rand.NewSource(1))
	polys := make([][]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		p := make([]float64, 10)
		for j := range p {
			p[j] = rng.Float64() * float64(i+1)
		}
		polys = append(polys, p)
	}
	keys := make([]float64, len(polys))
	for i, p := range polys {
		s := 0.0
		for j := 0; j+1 < len(p); j++ {
			s += p[j]*p[j+1] - p[j+1]*p[j]/2
		}
		keys[i] = s
	}
	sort.Float64s(keys)
	kernelSink = polys
}

// kernelMallocs is how many objects one kernel call allocates, measured once
// so that passes can take the kernel's share out of allocs_per_query.
var kernelMallocs = func() uint64 {
	kernel()
	before := readMem()
	kernel()
	return readMem().since(before).mallocs
}()

// calibration collects the kernel's timings during one pass or one set-up.
type calibration struct {
	every int // in a query loop, run the kernel once after this many queries
	ms    []float64
	spent time.Duration
}

// afterQuery runs the kernel if i+1 queries make a whole number of rounds.
func (c *calibration) afterQuery(i int) {
	if c != nil && (i+1)%c.every == 0 {
		c.tick(1)
	}
}

// tick runs the kernel n times.
func (c *calibration) tick(n int) {
	if c == nil {
		return
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		kernel()
		d := time.Since(start)
		c.ms = append(c.ms, float64(d)/float64(time.Millisecond))
		c.spent += d
	}
}

// factor converts a measured time to the reference speed: below 1 when the
// machine ran slower than the reference while the pass was measured.
func (c *calibration) factor() float64 {
	if c == nil || len(c.ms) == 0 {
		return 1
	}
	return kernelNominalMs / median(c.ms)
}

// mallocs is what the kernel calls of this calibration allocated.
func (c *calibration) mallocs() uint64 {
	if c == nil {
		return 0
	}
	return uint64(len(c.ms)) * kernelMallocs
}
