// Package approx builds learned polynomial summaries over a value index's
// cell-interval distribution, answering value-range COUNT/AREA aggregates
// with a certified error bound in O(1) page reads (PolyFit, Li et al., arXiv
// 2003.08031, adapted to the interval-stabbing counts of field value
// queries).
//
// # The four cumulative functions
//
// A cell with interval [lo_i, hi_i] intersects a query [lo, hi] iff
// lo_i ≤ hi AND hi_i ≥ lo. Writing
//
//	Chi(x) = Σ w_i over cells with hi_i <  x   (weight below x by interval top)
//	Clo(x) = Σ w_i over cells with lo_i ≤ x   (weight up to x by interval bottom)
//
// the cells excluded by hi_i < lo all satisfy lo_i ≤ hi_i < lo ≤ hi, so they
// are a subset of those counted by Clo(hi) and the intersection weight is
// exactly
//
//	agg([lo, hi]) = Clo(hi) − Chi(lo).
//
// The package fits both functions twice — once with unit weights (COUNT) and
// once with cell-area weights (AREA) — as monotone step functions over the
// value domain, approximated by piecewise degree-≤2 polynomials.
//
// # Certified bounds
//
// Each fitted segment carries a bound: the exact supremum of |p(x) − C(x)|
// over the segment, computed against the true step function (which is
// piecewise constant, so the supremum is attained at a breakpoint's one-sided
// limits or at the parabola's vertex — all enumerable). An aggregate answer's
// certified bound is the sum of the two segment bounds it touched plus the
// widening term accumulated by live updates; the true answer is guaranteed
// within it.
//
// Segments are grown by greedy worst-first splitting: fit the whole domain,
// then repeatedly split the segment with the largest certified bound at its
// median breakpoint, until the encoding budget (a fixed handful of pages) is
// exhausted or the bound reaches zero.
//
// The encoded form is self-contained bytes designed to live in a few
// dedicated storage pages: an aggregate answer costs at most those few page
// reads regardless of query selectivity.
package approx

import (
	"encoding/binary"
	"fmt"
	"math"

	"fielddb/internal/geom"
)

// Encoding geometry. The header pins the widen fields at fixed offsets so a
// live-update batch can widen the certified bound by patching 16 bytes of the
// first summary page without re-encoding.
const (
	magic      = "FSM1"
	version    = 1
	numFns     = 4
	headerSize = 4 + 2 + 2 + 8 + 8 + 8 + 8 + numFns*(8+4+4) // 104
	segSize    = 5 * 8                                      // hiKnot, c0, c1, c2, bound

	// widenCountOff and widenAreaOff locate the two widening accumulators
	// inside the header (and therefore inside the first summary page).
	widenCountOff = 24
	widenAreaOff  = 32
)

// The four fitted functions, in encoding order.
const (
	fnCountHi = iota // unit weight below x by interval top (strict)
	fnCountLo        // unit weight up to x by interval bottom (inclusive)
	fnAreaHi         // area weight below x by interval top (strict)
	fnAreaLo         // area weight up to x by interval bottom (inclusive)
)

// Segment is one fitted piece of a cumulative function: on [Lo, Hi] the
// function is approximated by p(x) = C0 + C1·(x−Lo) + C2·(x−Lo)², with
// |p(x) − C(x)| ≤ Bound certified over the whole closed segment.
type Segment struct {
	Lo, Hi     float64
	C0, C1, C2 float64
	Bound      float64
}

// Fn is one fitted cumulative function: contiguous segments tiling
// [Segments[0].Lo, Segments[last].Hi], plus the exact total the function
// reaches past its last knot — the summary's N or TotalArea, which is what
// the encoding carries and clamps to.
type Fn struct {
	Segments []Segment
	Total    float64
}

// Summary is a decoded polynomial summary: the four fitted cumulative
// functions plus the exact totals and the update-widening accumulators.
type Summary struct {
	N          float64 // exact cell count at fit time
	TotalArea  float64 // exact Σ cell areas at fit time
	WidenCount float64 // certified-count slack accumulated by updates
	WidenArea  float64 // certified-area slack accumulated by updates
	Fns        [numFns]Fn
}

// Estimate is an approximate aggregate answer with its certified bounds:
// |Count − true count| ≤ CountBound and |Area − true area| ≤ AreaBound.
type Estimate struct {
	Count, CountBound float64
	Area, AreaBound   float64
	N, TotalArea      float64
}

// Fraction returns the estimated area fraction of the field matching the
// query, with its certified bound. A zero-area summary reports (0, 0).
func (e Estimate) Fraction() (frac, bound float64) {
	if e.TotalArea <= 0 {
		return 0, 0
	}
	return e.Area / e.TotalArea, e.AreaBound / e.TotalArea
}

// MaxSegments returns how many segments per function an encoding budget of n
// bytes affords (zero when even the header does not fit).
func MaxSegments(budget int) int {
	if budget < headerSize+numFns*segSize {
		return 0
	}
	return (budget - headerSize) / numFns / segSize
}

// stepData is one cumulative step function in breakpoint form: strictly
// increasing distinct keys bx with cum[j] = Σ weights of keys ≤ bx[j].
type stepData struct {
	bx  []float64
	cum []float64
}

func (d *stepData) total() float64 {
	if len(d.cum) == 0 {
		return 0
	}
	return d.cum[len(d.cum)-1]
}

// buildStep folds (key, weight) pairs — already sorted by key — into
// breakpoint form, at most one breakpoint per key.
func buildStep(keys, weights []float64) stepData {
	d := stepData{bx: make([]float64, 0, len(keys)), cum: make([]float64, 0, len(keys))}
	for i, k := range keys {
		if n := len(d.bx); n > 0 && d.bx[n-1] == k {
			d.cum[n-1] += weights[i]
			continue
		}
		prev := 0.0
		if n := len(d.cum); n > 0 {
			prev = d.cum[n-1]
		}
		d.bx = append(d.bx, k)
		d.cum = append(d.cum, prev+weights[i])
	}
	return d
}

// fitSegment least-squares-fits a degree-≤2 polynomial to the step midpoints
// of breakpoints [i0, i1] and returns it anchored at bx[i0]. Midpoints —
// (left limit + right value)/2 at each breakpoint — halve the unavoidable
// error at a jump compared to fitting either side.
func fitSegment(d *stepData, i0, i1 int) (c0, c1, c2 float64) {
	lo := d.bx[i0]
	span := d.bx[i1] - lo
	n := i1 - i0 + 1
	if n == 1 || span == 0 {
		prev := 0.0
		if i0 > 0 {
			prev = d.cum[i0-1]
		}
		return (prev + d.cum[i1]) / 2, 0, 0
	}
	// Accumulate normal equations over normalized t = (x − lo)/span for
	// conditioning; convert coefficients back to x at the end.
	var s0, s1, s2, s3, s4, sy, sty, st2y float64
	for j := i0; j <= i1; j++ {
		t := (d.bx[j] - lo) / span
		prev := 0.0
		if j > 0 {
			prev = d.cum[j-1]
		}
		y := (prev + d.cum[j]) / 2
		t2 := t * t
		s0++
		s1 += t
		s2 += t2
		s3 += t2 * t
		s4 += t2 * t2
		sy += y
		sty += t * y
		st2y += t2 * y
	}
	a0, a1, a2, ok := solve3(s0, s1, s2, s1, s2, s3, s2, s3, s4, sy, sty, st2y)
	if !ok {
		// Degenerate quadratic system: fall back to a line, then a constant.
		det := s0*s2 - s1*s1
		if det != 0 {
			a0 = (sy*s2 - sty*s1) / det
			a1 = (s0*sty - s1*sy) / det
			a2 = 0
		} else {
			a0, a1, a2 = sy/s0, 0, 0
		}
	}
	return a0, a1 / span, a2 / (span * span)
}

// solve3 solves the symmetric 3×3 system by Gaussian elimination with
// partial pivoting; ok is false when the matrix is (near-)singular.
func solve3(m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 float64) (x0, x1, x2 float64, ok bool) {
	m := [3][4]float64{
		{m00, m01, m02, b0},
		{m10, m11, m12, b1},
		{m20, m21, m22, b2},
	}
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return 0, 0, 0, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	return m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2], true
}

// certify computes the exact supremum of |p − C| over breakpoints [i0, i1],
// where p is anchored at bx[i0]. The step function is constant between
// breakpoints, so the supremum is attained at a breakpoint (against both its
// one-sided limits — covering the strict and inclusive conventions alike) or
// at the parabola vertex within a piece. A hair of slack absorbs float
// rounding between the certification and later evaluations.
func certify(d *stepData, i0, i1 int, c0, c1, c2 float64) float64 {
	lo := d.bx[i0]
	eval := func(x float64) float64 {
		dx := x - lo
		return c0 + dx*(c1+dx*c2)
	}
	worst := 0.0
	for j := i0; j <= i1; j++ {
		p := eval(d.bx[j])
		prev := 0.0
		if j > 0 {
			prev = d.cum[j-1]
		}
		if e := math.Abs(p - prev); e > worst {
			worst = e
		}
		if e := math.Abs(p - d.cum[j]); e > worst {
			worst = e
		}
	}
	if c2 != 0 {
		xv := lo - c1/(2*c2)
		if xv > d.bx[i0] && xv < d.bx[i1] {
			// The piece holding the vertex carries the step value of the
			// breakpoint at or before xv.
			j := searchFloat(d.bx, i0, i1, xv)
			if e := math.Abs(eval(xv) - d.cum[j]); e > worst {
				worst = e
			}
		}
	}
	total := d.total()
	return worst*(1+1e-12) + math.Abs(total)*1e-12
}

// searchFloat returns the largest j in [i0, i1] with bx[j] ≤ x (assumes
// bx[i0] ≤ x).
func searchFloat(bx []float64, i0, i1 int, x float64) int {
	lo, hi := i0, i1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if bx[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// fitRange is one working segment during greedy splitting.
type fitRange struct {
	i0, i1     int
	c0, c1, c2 float64
	bound      float64
}

func makeRange(d *stepData, i0, i1 int) fitRange {
	c0, c1, c2 := fitSegment(d, i0, i1)
	return fitRange{i0: i0, i1: i1, c0: c0, c1: c1, c2: c2,
		bound: certify(d, i0, i1, c0, c1, c2)}
}

// fitFn fits one cumulative function with at most maxSegs segments by greedy
// worst-first splitting at median breakpoints.
func fitFn(d *stepData, maxSegs int) Fn {
	if len(d.bx) == 0 {
		return Fn{}
	}
	ranges := []fitRange{makeRange(d, 0, len(d.bx)-1)}
	for len(ranges) < maxSegs {
		worst, at := 0.0, -1
		for i, r := range ranges {
			if r.bound > worst && r.i1 > r.i0 {
				worst, at = r.bound, i
			}
		}
		if at < 0 || worst == 0 {
			break
		}
		r := ranges[at]
		mid := (r.i0 + r.i1) / 2
		if mid == r.i0 {
			mid++
		}
		left, right := makeRange(d, r.i0, mid), makeRange(d, mid, r.i1)
		ranges[at] = left
		ranges = append(ranges, fitRange{})
		copy(ranges[at+2:], ranges[at+1:])
		ranges[at+1] = right
	}
	fn := Fn{Segments: make([]Segment, len(ranges))}
	for i, r := range ranges {
		fn.Segments[i] = Segment{
			Lo: d.bx[r.i0], Hi: d.bx[r.i1],
			C0: r.c0, C1: r.c1, C2: r.c2, Bound: r.bound,
		}
	}
	return fn
}

// Build fits a summary over the cells' value intervals and areas. budget is
// the encoded-size ceiling in bytes (the dedicated summary pages); the fit
// spends it greedily where the certified bound is worst. ivs and areas are
// snapshots — Build neither retains nor mutates them.
func Build(ivs []geom.Interval, areas []float64, budget int) (*Summary, error) {
	if len(ivs) == 0 {
		return nil, fmt.Errorf("approx: no cells to summarize")
	}
	if len(areas) != len(ivs) {
		return nil, fmt.Errorf("approx: %d intervals but %d areas", len(ivs), len(areas))
	}
	maxSegs := MaxSegments(budget)
	if maxSegs == 0 {
		return nil, fmt.Errorf("approx: budget %d bytes cannot hold a summary (need ≥ %d)",
			budget, headerSize+numFns*segSize)
	}
	n := len(ivs)
	// Sort indices by interval top and bottom once; the four step functions
	// share the two orders.
	byHi := sortedBy(ivs, func(iv geom.Interval) float64 { return iv.Hi })
	byLo := sortedBy(ivs, func(iv geom.Interval) float64 { return iv.Lo })
	keysHi, keysLo := make([]float64, n), make([]float64, n)
	onesHi, areasHi := make([]float64, n), make([]float64, n)
	onesLo, areasLo := make([]float64, n), make([]float64, n)
	totalArea := 0.0
	for i, id := range byHi {
		keysHi[i] = ivs[id].Hi
		onesHi[i] = 1
		areasHi[i] = areas[id]
	}
	for i, id := range byLo {
		keysLo[i] = ivs[id].Lo
		onesLo[i] = 1
		areasLo[i] = areas[id]
		totalArea += areas[id]
	}
	s := &Summary{N: float64(n), TotalArea: totalArea}
	steps := [numFns]stepData{
		fnCountHi: buildStep(keysHi, onesHi),
		fnCountLo: buildStep(keysLo, onesLo),
		fnAreaHi:  buildStep(keysHi, areasHi),
		fnAreaLo:  buildStep(keysLo, areasLo),
	}
	for i := range steps {
		s.Fns[i] = fitFn(&steps[i], maxSegs)
		s.Fns[i].Total = s.fnTotal(i)
	}
	return s, nil
}

// fnTotal is the value function fn reaches past its last knot: the cell count
// for the count functions, the total area for the area ones. (The area step
// functions sum the same areas in another order, so their own last value may
// differ from TotalArea in the last digit; the summary answers with this one.)
func (s *Summary) fnTotal(fn int) float64 {
	if fn == fnCountHi || fn == fnCountLo {
		return s.N
	}
	return s.TotalArea
}

// sortedBy returns cell indices ordered by key(ivs[i]) ascending, ties by
// index, for determinism. It is a stable LSD radix sort, in digitBits-bit
// digits, over each key's order-preserving bit image (see orderBits): the
// cells start in index order and every pass keeps equal digits in the order
// it found them. A pass whose digit is the same for every key moves nothing
// and is skipped. Keys are finite, as cell intervals are.
func sortedBy(ivs []geom.Interval, key func(geom.Interval) float64) []int {
	type keyed struct {
		bits uint64
		i    int
	}
	n := len(ivs)
	src, dst := make([]keyed, n), make([]keyed, n)
	for i, iv := range ivs {
		src[i] = keyed{orderBits(key(iv)), i}
	}
	const buckets = 1 << digitBits
	var count [buckets]int
	for shift := 0; shift < 64; shift += digitBits {
		clear(count[:])
		for _, k := range src {
			count[k.bits>>shift&(buckets-1)]++
		}
		if n > 0 && count[src[0].bits>>shift&(buckets-1)] == n {
			continue
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, k := range src {
			d := k.bits >> shift & (buckets - 1)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	idx := make([]int, n)
	for i, k := range src {
		idx[i] = k.i
	}
	return idx
}

// digitBits is sortedBy's radix: six passes at most, over a 2 048-entry count
// table that stays in the L1 cache (measured against 8 and 16 bits: as fast or
// faster on 65 536 keys, with the smaller table).
const digitBits = 11

// orderBits maps a float64 to a uint64 whose unsigned order is the float's
// order: a positive float's sign bit is set, a negative float's bits are all
// flipped. −0 is folded onto +0 first, since the two compare equal.
func orderBits(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// EncodedSize returns the exact byte length Encode will produce.
func (s *Summary) EncodedSize() int {
	n := headerSize
	for i := range s.Fns {
		n += len(s.Fns[i].Segments) * segSize
	}
	return n
}

// Encode serializes the summary. The layout keeps the widen accumulators at
// fixed offsets in the first bytes so PatchWiden can update them in place on
// the first summary page.
func (s *Summary) Encode() []byte {
	buf := make([]byte, s.EncodedSize())
	copy(buf, magic)
	binary.LittleEndian.PutUint16(buf[4:], version)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.N))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(s.TotalArea))
	binary.LittleEndian.PutUint64(buf[widenCountOff:], math.Float64bits(s.WidenCount))
	binary.LittleEndian.PutUint64(buf[widenAreaOff:], math.Float64bits(s.WidenArea))
	off := headerSize
	for i := range s.Fns {
		fn := &s.Fns[i]
		h := 40 + i*16
		first := 0.0
		if len(fn.Segments) > 0 {
			first = fn.Segments[0].Lo
		}
		binary.LittleEndian.PutUint64(buf[h:], math.Float64bits(first))
		binary.LittleEndian.PutUint32(buf[h+8:], uint32(len(fn.Segments)))
		binary.LittleEndian.PutUint32(buf[h+12:], uint32(off))
		for _, seg := range fn.Segments {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(seg.Hi))
			binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(seg.C0))
			binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(seg.C1))
			binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(seg.C2))
			binary.LittleEndian.PutUint64(buf[off+32:], math.Float64bits(seg.Bound))
			off += segSize
		}
	}
	return buf
}

func f64at(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// checkHeader validates the magic/version and that every segment array lies
// within buf.
func checkHeader(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("approx: summary truncated (%d bytes)", len(buf))
	}
	if string(buf[:4]) != magic {
		return fmt.Errorf("approx: bad summary magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != version {
		return fmt.Errorf("approx: unsupported summary version %d", v)
	}
	for i := 0; i < numFns; i++ {
		h := 40 + i*16
		segs := int(binary.LittleEndian.Uint32(buf[h+8:]))
		off := int(binary.LittleEndian.Uint32(buf[h+12:]))
		if off < headerSize || off+segs*segSize > len(buf) {
			return fmt.Errorf("approx: summary function %d out of bounds", i)
		}
	}
	return nil
}

// evalFnEncoded evaluates one encoded cumulative function at x, returning
// the estimate and its certified bound. total is the function's exact value
// past its last knot (N for counts, TotalArea for areas).
func evalFnEncoded(buf []byte, fn int, x, total float64) (v, bound float64) {
	h := 40 + fn*16
	first := f64at(buf, h)
	segs := int(binary.LittleEndian.Uint32(buf[h+8:]))
	off := int(binary.LittleEndian.Uint32(buf[h+12:]))
	if segs == 0 || x < first {
		return 0, 0
	}
	last := f64at(buf, off+(segs-1)*segSize)
	if x > last {
		return total, 0
	}
	// Binary search the first segment with hiKnot ≥ x.
	lo, hi := 0, segs-1
	for lo < hi {
		mid := (lo + hi) / 2
		if f64at(buf, off+mid*segSize) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	segLo := first
	if lo > 0 {
		segLo = f64at(buf, off+(lo-1)*segSize)
	}
	so := off + lo*segSize
	c0 := f64at(buf, so+8)
	c1 := f64at(buf, so+16)
	c2 := f64at(buf, so+24)
	bound = f64at(buf, so+32)
	dx := x - segLo
	v = c0 + dx*(c1+dx*c2)
	// Clamping toward the function's true range never moves the estimate
	// away from the truth, so the bound stays valid.
	v = math.Max(0, math.Min(v, total))
	return v, bound
}

// EvalEncoded answers the aggregate for query [lo, hi] from an encoded
// summary (the concatenated summary pages; trailing padding is ignored).
func EvalEncoded(buf []byte, lo, hi float64) (Estimate, error) {
	if err := checkHeader(buf); err != nil {
		return Estimate{}, err
	}
	n := f64at(buf, 8)
	totalArea := f64at(buf, 16)
	widenCount := f64at(buf, widenCountOff)
	widenArea := f64at(buf, widenAreaOff)
	cHi, bHi := evalFnEncoded(buf, fnCountHi, lo, n)
	cLo, bLo := evalFnEncoded(buf, fnCountLo, hi, n)
	aHi, abHi := evalFnEncoded(buf, fnAreaHi, lo, totalArea)
	aLo, abLo := evalFnEncoded(buf, fnAreaLo, hi, totalArea)
	e := Estimate{N: n, TotalArea: totalArea}
	e.Count = math.Max(0, math.Min(cLo-cHi, n))
	e.CountBound = math.Min(bHi+bLo+widenCount, n)
	e.Area = math.Max(0, math.Min(aLo-aHi, totalArea))
	e.AreaBound = math.Min(abHi+abLo+widenArea, totalArea)
	return e, nil
}

// Widen reads the widening accumulators from an encoded summary (or its
// first page — the fields live in the header).
func Widen(buf []byte) (count, area float64) {
	return f64at(buf, widenCountOff), f64at(buf, widenAreaOff)
}

// PatchWiden adds an update batch's slack to the widening accumulators in
// place. page must hold at least the summary header's first widenAreaOff+8
// bytes — in practice the first summary page. Every touched cell can shift
// each cumulative count by at most 1 and each cumulative area by at most its
// area, so adding (cells touched, Σ their areas) keeps every certified bound
// valid without refitting.
func PatchWiden(page []byte, addCount, addArea float64) {
	c := f64at(page, widenCountOff) + addCount
	a := f64at(page, widenAreaOff) + addArea
	binary.LittleEndian.PutUint64(page[widenCountOff:], math.Float64bits(c))
	binary.LittleEndian.PutUint64(page[widenAreaOff:], math.Float64bits(a))
}

// Decode parses an encoded summary back into its structured form (tests and
// diagnostics; the query path evaluates the encoding directly).
func Decode(buf []byte) (*Summary, error) {
	if err := checkHeader(buf); err != nil {
		return nil, err
	}
	s := &Summary{
		N:          f64at(buf, 8),
		TotalArea:  f64at(buf, 16),
		WidenCount: f64at(buf, widenCountOff),
		WidenArea:  f64at(buf, widenAreaOff),
	}
	for i := 0; i < numFns; i++ {
		h := 40 + i*16
		first := f64at(buf, h)
		segs := int(binary.LittleEndian.Uint32(buf[h+8:]))
		off := int(binary.LittleEndian.Uint32(buf[h+12:]))
		fn := Fn{Segments: make([]Segment, segs), Total: s.fnTotal(i)}
		lo := first
		for j := 0; j < segs; j++ {
			so := off + j*segSize
			fn.Segments[j] = Segment{
				Lo: lo, Hi: f64at(buf, so),
				C0: f64at(buf, so+8), C1: f64at(buf, so+16), C2: f64at(buf, so+24),
				Bound: f64at(buf, so+32),
			}
			lo = fn.Segments[j].Hi
		}
		s.Fns[i] = fn
	}
	return s, nil
}
