package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"fielddb"
)

// What DecodeFrame may allocate for a frame of n bytes: wireAllocFactor·n +
// wireAllocSlack. A value of any column costs at least its 2-bit tag on the
// wire and decodes into 8 bytes — twice, chunk then block, in a geometry
// column — and into 16 more as a ring point; a batch member costs a bitmap bit
// and 13 tags and decodes into a bool, a pointer and a WireResult.
const (
	wireAllocFactor = 256
	wireAllocSlack  = 64 << 10
)

// wireSeedFrames returns one real frame of every kind, as the server's binary
// encoders produce them for TestWireEquivalence's requests.
func wireSeedFrames(t testing.TB) [][]byte {
	_, hs, db := testServer(t, Config{}, 0)
	vr := db.ValueRange()
	lo, hi := vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6
	var frames [][]byte
	for _, url := range []string{
		"/v1/fields",
		"/v1/fields/terrain",
		fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g", lo, hi),
		fmt.Sprintf("/v1/fields/terrain/range?lo=%g&hi=%g&geometry=1", lo, hi),
		"/v1/fields/terrain/point?x=10.5&y=20.25",
		fmt.Sprintf("/v1/fields/terrain/contour?level=%g&geometry=1", (lo+hi)/2),
		fmt.Sprintf("/v1/fields/terrain/aggregate?lo=%g&hi=%g", lo, hi),
		"/v1/fields/nosuch/range?lo=1&hi=2",
	} {
		_, _, body := getBin(t, hs.URL+url)
		frames = append(frames, body)
	}
	for url, body := range map[string]string{
		"/v1/fields/frozen/batch":            fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g]]}`, lo, hi, lo, lo+vr.Length()*0.05),
		"/v1/fields/frozen/batch?geometry=1": fmt.Sprintf(`{"intervals":[[%g,%g],[%g,%g]]}`, lo, hi, hi-vr.Length()*0.05, hi),
		"/v1/and?geometry=1":                 fmt.Sprintf(`{"conditions":[{"field":"terrain","lo":%g,"hi":%g},{"field":"frozen","lo":%g,"hi":%g}]}`, lo, hi, lo, vr.Hi),
		"/v1/fields/terrain/update":          `{"updates":[{"sample":3,"value":900}]}`,
	} {
		_, frame := postBin(t, hs.URL+url, body)
		frames = append(frames, frame)
	}
	kinds := map[string]bool{}
	for _, frame := range frames {
		v, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("seed frame does not decode: %v", err)
		}
		kinds[fmt.Sprintf("%T", v)] = true
	}
	if len(kinds) != 10 {
		t.Fatalf("seeds cover %d of the 10 frame kinds: %v", len(kinds), kinds)
	}
	return frames
}

// FuzzDecodeFrame: on arbitrary bytes DecodeFrame never panics and allocates
// no more than wireAllocFactor bytes per input byte (plus wireAllocSlack),
// whatever counts the frame claims; and the same bytes read as a query result
// — arbitrary float64 bit patterns for coordinates — survive the binary
// encoder and DecodeFrame bit for bit.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range wireSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeFrame(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(wireAllocFactor*len(data)+wireAllocSlack); got > limit {
			t.Fatalf("DecodeFrame allocated %d bytes for a %d-byte frame, limit %d", got, len(data), limit)
		}

		res := resultFromBytes(data)
		rec := newRecordingWriter()
		q := lease(rec)
		binCodec{&q.codec}.result("fuzz", res, true)
		q.put()
		v, err := DecodeFrame(rec.body.Bytes())
		if err != nil {
			t.Fatalf("DecodeFrame of an encoded result: %v", err)
		}
		got, want := v.(*WireResultFrame).Result, viewResult(res, true)
		if !slices.Equal(bitsOf(got), bitsOf(want)) {
			t.Fatalf("result did not round-trip:\n got %+v\nwant %+v", got, want)
		}

		// The same bytes as a geometry block, and the result's rings encoded
		// as one: each decodes as the ring-by-ring decoder did, and a ring
		// grown by append leaves the next one as it was.
		rec = newRecordingWriter()
		q = lease(rec)
		q.codec.streamGeometryBin(res.Regions, true)
		q.put()
		for _, block := range [][]byte{data, rec.body.Bytes()} {
			r, ref := &frameReader{b: block}, &frameReader{b: block}
			rings, want := r.geometry(), geometryPerRing(ref)
			if (r.err == nil) != (ref.err == nil) || !slices.Equal(ringBits(rings), ringBits(want)) {
				t.Fatalf("geometry block of %d bytes: %d rings (error %v), ring by ring %d (error %v)",
					len(block), len(rings), r.err, len(want), ref.err)
			}
			for i := 0; i+1 < len(rings); i++ {
				next := ringBits(rings[i+1 : i+2])
				rings[i] = append(rings[i], [2]float64{math.Inf(1), math.Inf(-1)})
				if !slices.Equal(ringBits(rings[i+1:i+2]), next) {
					t.Fatalf("appending to ring %d of %d overwrote ring %d", i, len(rings), i+1)
				}
			}
		}
	})
}

// geometryPerRing is frameReader.geometry as it stood when every ring was its
// own allocation, kept verbatim: FuzzDecodeFrame holds the shared-array
// decoder to it.
func geometryPerRing(r *frameReader) [][][2]float64 {
	if r.u8() == 0 || r.err != nil {
		return nil
	}
	nrings := r.u32()
	npoints := r.u32()
	if r.err != nil {
		return nil
	}
	lens := r.chunkedColumn(nrings)
	xs := r.chunkedColumn(npoints)
	ys := r.chunkedColumn(npoints)
	if r.err != nil {
		return nil
	}
	rings := make([][][2]float64, 0, nrings) // nrings lengths were decoded: the frame held them

	off := 0
	for i := 0; i < nrings; i++ {
		npts := int(uint32(math.Float64bits(lens[i])))
		if npts < 0 || off+npts > npoints {
			r.err = fmt.Errorf("wire: geometry ring %d claims %d points beyond the %d-point block", i, npts, npoints)
			return nil
		}
		ring := make([][2]float64, npts)
		for j := range ring {
			ring[j] = [2]float64{xs[off+j], ys[off+j]}
		}
		off += npts
		rings = append(rings, ring)
	}
	if off != npoints {
		r.err = fmt.Errorf("wire: geometry block carries %d points but rings claim %d", npoints, off)
		return nil
	}
	return rings
}

// ringBits flattens rings to their lengths and the bit patterns of their
// points, so NaN coordinates compare.
func ringBits(rings [][][2]float64) []uint64 {
	out := []uint64{uint64(len(rings))}
	for _, ring := range rings {
		out = append(out, uint64(len(ring)))
		for _, p := range ring {
			out = append(out, math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	return out
}

// resultFromBytes reads data as a query result: 8-byte words as float64 bit
// patterns, the first few as the scalars, the rest as the coordinates of
// regions whose sizes the words themselves pick.
func resultFromBytes(data []byte) *fielddb.Result {
	words := make([]float64, len(data)/8)
	for i := range words {
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	next := func() float64 {
		if len(words) == 0 {
			return 0
		}
		w := words[0]
		words = words[1:]
		return w
	}
	count := func() int { return int(uint32(math.Float64bits(next()))) }
	res := &fielddb.Result{}
	res.Query.Lo, res.Query.Hi, res.Area = next(), next(), next()
	res.CandidateGroups, res.CellsFetched, res.CellsMatched = count(), count(), count()
	res.IO.Reads, res.IO.CacheHits = count(), count()
	for len(words) > 0 {
		n := min(int(math.Float64bits(words[0])%7), len(words)/2)
		ring := make(fielddb.Polygon, n)
		for i := range ring {
			ring[i].X, ring[i].Y = next(), next()
		}
		if n == 0 {
			next()
		}
		res.Regions = append(res.Regions, ring)
	}
	res.RegionCount = len(res.Regions)
	return res
}

// bitsOf flattens a wire result to the bit patterns of everything in it, so
// NaN coordinates compare.
func bitsOf(r WireResult) []uint64 {
	out := []uint64{
		math.Float64bits(r.Lo), math.Float64bits(r.Hi), math.Float64bits(r.Area),
		uint64(r.CandidateGroups), uint64(r.CellsFetched), uint64(r.CellsMatched),
		uint64(r.Regions), uint64(r.Isolines), uint64(r.IO.Reads), uint64(r.IO.CacheHits),
		uint64(len(r.Geometry)),
	}
	for _, ring := range r.Geometry {
		out = append(out, uint64(len(ring)))
		for _, p := range ring {
			out = append(out, math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	return out
}
