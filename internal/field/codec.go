package field

import (
	"encoding/binary"
	"fmt"
	"math"

	"fielddb/internal/geom"
)

// Cell record layout (little endian):
//
//	[0:4)  cell id
//	[4:5)  vertex count k (3 or 4)
//	then k × (x float64, y float64, w float64).
//
// A 4-vertex DEM cell is 101 bytes, so a 4 KiB page holds ~38 cells; the
// 512×512 terrain of Fig 8a occupies ~6,900 pages, matching the paper's
// "large field database" setting.

// EncodedSize returns the record size for a cell with k vertices.
func EncodedSize(k int) int { return 5 + 24*k }

// AppendCell serializes c onto dst and returns the extended slice.
func AppendCell(dst []byte, c *Cell) []byte {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(c.ID))
	hdr[4] = byte(len(c.Vertices))
	dst = append(dst, hdr[:]...)
	var b [8]byte
	for i, p := range c.Vertices {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.X))
		dst = append(dst, b[:]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Y))
		dst = append(dst, b[:]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Values[i]))
		dst = append(dst, b[:]...)
	}
	return dst
}

// CellIntervalFromRecord extracts the value interval of an encoded cell —
// the same min/max Cell.Interval computes — without materializing vertices.
// The filter-only passes of the query pipeline use it to test a candidate
// record against the query interval and decode the full cell only on a
// match; a DEM workload at paper selectivities discards most fetched cells
// here, so skipping the two coordinate floats per vertex (and the slice
// bookkeeping of DecodeCell) on the discard path is the common case.
func CellIntervalFromRecord(rec []byte) (geom.Interval, error) {
	if len(rec) < 5 {
		return geom.Interval{}, fmt.Errorf("field: cell record too short: %d bytes", len(rec))
	}
	k := int(rec[4])
	if k != 3 && k != 4 {
		return geom.Interval{}, fmt.Errorf("field: cell record has vertex count %d", k)
	}
	if want := EncodedSize(k); len(rec) != want {
		return geom.Interval{}, fmt.Errorf("field: cell record is %d bytes, want %d", len(rec), want)
	}
	iv := geom.EmptyInterval()
	off := 5 + 16 // first vertex's value
	for i := 0; i < k; i++ {
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[off:]))
		if w < iv.Lo {
			iv.Lo = w
		}
		if w > iv.Hi {
			iv.Hi = w
		}
		off += 24
	}
	return iv, nil
}

// RecordIntersects reports whether the cell encoded in rec intersects the
// closed interval q — CellIntervalFromRecord(rec) followed by
// Intersects(q), decided on the record's bytes without building the
// interval. ok is false exactly where CellIntervalFromRecord refuses the
// record; its error is the one to report. The interval's min/max fold skips
// a NaN value and the interval meets q when some value lies at or below q.Hi
// and some value at or above q.Lo; a NaN passes neither comparison, so an
// all-NaN cell, whose interval is empty, meets nothing. This is the run scans'
// record test: a rejected cell costs its three or four loads and a few
// compares.
func RecordIntersects(rec []byte, q geom.Interval) (hit, ok bool) {
	var w3 float64
	switch {
	case len(rec) == EncodedSize(4) && rec[4] == 4:
		w3 = recordValue(rec, 3)
	case len(rec) == EncodedSize(3) && rec[4] == 3:
		w3 = math.NaN() // a fourth value that takes part in no comparison
	default:
		return false, false
	}
	w0, w1, w2 := recordValue(rec, 0), recordValue(rec, 1), recordValue(rec, 2)
	below := w0 <= q.Hi || w1 <= q.Hi || w2 <= q.Hi || w3 <= q.Hi
	above := w0 >= q.Lo || w1 >= q.Lo || w2 >= q.Lo || w3 >= q.Lo
	return below && above && !q.IsEmpty(), true
}

// recordValue is the value of vertex i of an encoded cell.
func recordValue(rec []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[5+24*i+16:]))
}

// FilterIntervals tests the packed interval columns lo/hi — one sidecar
// page's worth at a time — against the closed query interval [qlo, qhi] and
// appends the positions base+i of the intersecting entries to out. The test
// is exactly geom.Interval.Intersects on the same operands (cell intervals
// are never empty), so a sidecar filter selects bit-for-bit the same cells
// as testing CellIntervalFromRecord per record.
//
// The loop is branch-reduced: every iteration writes the candidate position
// unconditionally and advances the output cursor by a comparison-derived
// 0/1, so there is no taken-branch or memmove cost on the (common) discard
// path.
func FilterIntervals(out []int32, base int32, lo, hi []float64, qlo, qhi float64) []int32 {
	j := len(out)
	need := j + len(lo)
	if cap(out) < need {
		grown := make([]int32, j, need+need/2)
		copy(grown, out)
		out = grown
	}
	out = out[:need]
	for i, l := range lo {
		out[j] = base + int32(i)
		inc := 0
		if hi[i] >= qlo && l <= qhi {
			inc = 1
		}
		j += inc
	}
	return out[:j]
}

// FilterIntervalsMulti is FilterIntervals for a batch of query intervals:
// one pass over the packed columns evaluates every query's predicate per
// entry, appending the surviving positions to that query's own out slice.
// Per query the selection is bit-for-bit what FilterIntervals would produce
// on the same operands, so a shared sidecar scan can serve a whole batch
// without changing any member's answer. out must have at least len(qlo)
// slices; a query whose bounds are NaN (the batch executor's dead-member
// marker) selects nothing.
func FilterIntervalsMulti(out [][]int32, base int32, lo, hi []float64, qlo, qhi []float64) {
	for i, l := range lo {
		h := hi[i]
		p := base + int32(i)
		for k, ql := range qlo {
			if h >= ql && l <= qhi[k] {
				out[k] = append(out[k], p)
			}
		}
	}
}

// DecodeCell parses a record produced by AppendCell into dst, reusing its
// slices when capacities allow.
func DecodeCell(rec []byte, dst *Cell) error {
	if len(rec) < 5 {
		return fmt.Errorf("field: cell record too short: %d bytes", len(rec))
	}
	k := int(rec[4])
	if k != 3 && k != 4 {
		return fmt.Errorf("field: cell record has vertex count %d", k)
	}
	if want := EncodedSize(k); len(rec) != want {
		return fmt.Errorf("field: cell record is %d bytes, want %d", len(rec), want)
	}
	dst.ID = CellID(binary.LittleEndian.Uint32(rec[0:4]))
	if cap(dst.Vertices) < k {
		dst.Vertices = make([]geom.Point, k)
	}
	dst.Vertices = dst.Vertices[:k]
	if cap(dst.Values) < k {
		dst.Values = make([]float64, k)
	}
	dst.Values = dst.Values[:k]
	off := 5
	for i := 0; i < k; i++ {
		dst.Vertices[i].X = math.Float64frombits(binary.LittleEndian.Uint64(rec[off:]))
		dst.Vertices[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(rec[off+8:]))
		dst.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[off+16:]))
		off += 24
	}
	return nil
}
