package approx

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// What Decode may allocate for an n-byte summary: a function's segment claim
// is bounded by the bytes that hold it (40 on the wire, 48 decoded), and the
// four functions may claim the same bytes, so summaryAllocFactor·n covers any
// segment counts a hostile header states; the slack absorbs the summary itself
// and what the fuzzing engine allocates meanwhile, as in FuzzDecodeFrame.
const (
	summaryAllocFactor = 8
	summaryAllocSlack  = 64 << 10
)

// FuzzSummary: on arbitrary bytes EvalEncoded and Decode never panic, Decode
// allocates no more than summaryAllocFactor bytes per input byte (plus
// summaryAllocSlack) whatever segment counts the header claims, and a summary
// Decode accepts re-encodes into one that decodes and evaluates to the same
// bits. The seeds are real encodings — Build over random cells at several
// sizes and budgets, each of which Decode∘Encode must return unchanged — plus
// one with widened slack, one padded to whole pages as the store reads it, and
// one whose header claims 2³²−1 segments.
func FuzzSummary(f *testing.F) {
	var blobs [][]byte
	for _, c := range []struct{ n, budget int }{{1, 4096}, {7, 4096}, {100, 2048}, {2500, 4 * 4096}} {
		ivs, areas := randomCells(c.n, int64(c.n))
		s, err := Build(ivs, areas, c.budget)
		if err != nil {
			f.Fatal(err)
		}
		blob := s.Encode()
		if got, err := Decode(blob); err != nil || !reflect.DeepEqual(got, s) {
			f.Fatalf("Decode(Encode(s)) = %+v, %v; want %+v", got, err, s)
		}
		blobs = append(blobs, blob)
	}
	widened := slices.Clone(blobs[2])
	PatchWiden(widened, 3, 2.5)
	padded := append(slices.Clone(blobs[1]), make([]byte, 4096-len(blobs[1]))...)
	hostile := slices.Clone(blobs[0])
	binary.LittleEndian.PutUint32(hostile[40+8:], math.MaxUint32)
	for _, blob := range append(blobs, widened, padded, hostile) {
		f.Add(blob, 250.0, 500.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi float64) {
		est, evalErr := EvalEncoded(data, lo, hi)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(summaryAllocFactor*len(data)+summaryAllocSlack); got > limit {
			t.Fatalf("Decode allocated %d bytes for a %d-byte summary, limit %d", got, len(data), limit)
		}
		if (err == nil) != (evalErr == nil) {
			t.Fatalf("Decode error %v, EvalEncoded error %v", err, evalErr)
		}
		if err != nil {
			return
		}
		blob := s.Encode()
		again, err := Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded summary does not decode: %v", err)
		}
		if !slices.Equal(summaryBits(again), summaryBits(s)) {
			t.Fatalf("re-encoded summary decodes to %+v, want %+v", again, s)
		}
		est2, err := EvalEncoded(blob, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(estimateBits(est2), estimateBits(est)) {
			t.Fatalf("re-encoded summary estimates %+v, the original %+v", est2, est)
		}
	})
}

// summaryBits flattens a summary to the bit patterns of everything in it, so
// NaN fields compare.
func summaryBits(s *Summary) []uint64 {
	out := []uint64{math.Float64bits(s.N), math.Float64bits(s.TotalArea),
		math.Float64bits(s.WidenCount), math.Float64bits(s.WidenArea)}
	for _, fn := range s.Fns {
		out = append(out, uint64(len(fn.Segments)), math.Float64bits(fn.Total))
		for _, seg := range fn.Segments {
			for _, v := range [...]float64{seg.Lo, seg.Hi, seg.C0, seg.C1, seg.C2, seg.Bound} {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

func estimateBits(e Estimate) []uint64 {
	out := make([]uint64, 0, 6)
	for _, v := range [...]float64{e.Count, e.CountBound, e.Area, e.AreaBound, e.N, e.TotalArea} {
		out = append(out, math.Float64bits(v))
	}
	return out
}
