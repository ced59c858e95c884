package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// decodeColumnOracle is decodeColumn as it stood before it learned to read a
// tag byte's four fields at a time: one entry per step, kept verbatim.
// FuzzFloatColumn holds the decoder to it — the same values and the same
// refusals on any bytes.
func decodeColumnOracle(src []byte, n int, out []float64) error {
	if n < 1 || n > len(out) {
		return errors.New("column count out of range")
	}
	if len(src) < packedColHeader {
		return errors.New("column block truncated")
	}
	predictor, w1, w2 := src[0], uint(src[1]), uint(src[2])
	if predictor > predictorDoubleDelta || w1 < 1 || w1 > 63 || w2 < w1 || w2 > 63 {
		return errors.New("column header corrupt")
	}
	prev := binary.LittleEndian.Uint64(src[3:11])
	out[0] = math.Float64frombits(prev)
	if n == 1 {
		return nil
	}
	tagBytes := (2*(n-1) + 7) / 8
	if len(src) < packedColHeader+tagBytes {
		return errors.New("column block truncated")
	}
	tags := src[packedColHeader : packedColHeader+tagBytes]
	payload := src[packedColHeader+tagBytes:]
	// The payload length was rounded up to whole bytes; a field that would end
	// past it is a truncated block.
	avail := uint(len(payload)) * 8
	widths := [4]uint{0, w1, w2, 64}
	var ddMask uint64 // all ones when deltas accumulate
	if predictor == predictorDoubleDelta {
		ddMask = ^uint64(0)
	}
	var pos uint
	var prevDelta uint64
	for i := 0; i < n-1; i++ {
		w := widths[(tags[i>>2]>>(uint(i&3)*2))&3]
		var zz uint64
		if pos>>3+9 <= uint(len(payload)) {
			// Nine bytes ahead lie inside the block, so the field does too.
			zz, pos = getBits(payload, pos, w), pos+w
		} else if w > 0 {
			if pos+w > avail {
				return errors.New("column payload truncated")
			}
			zz, pos = getBitsBytewise(payload, pos, w)
		}
		delta := uint64(unzigzag(zz)) + prevDelta&ddMask
		prevDelta = delta
		prev += delta
		out[i+1] = math.Float64frombits(prev)
	}
	return nil
}

// TestFloatColumnRoundTrip drives the exported column codec over the shapes
// the wire format ships: smooth coordinate runs, noisy values, bit-cast
// integer counters, and adversarial floats.
func TestFloatColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]float64{
		"single":   {3.25},
		"constant": {7, 7, 7, 7, 7, 7},
		"ramp":     make([]float64, 257),
		"noise":    make([]float64, 100),
		"ints":     make([]float64, 64),
		"adversarial": {
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.NaN(), math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, 1e-300, -1e300,
		},
	}
	for i := range cases["ramp"] {
		cases["ramp"][i] = 100 + 0.5*float64(i)
	}
	for i := range cases["noise"] {
		cases["noise"][i] = rng.NormFloat64() * 1e6
	}
	for i := range cases["ints"] {
		cases["ints"][i] = math.Float64frombits(uint64(i * i))
	}
	for name, vals := range cases {
		buf := make([]byte, MaxFloatColumnSize(len(vals)))
		n := EncodeFloatColumn(buf, vals)
		if n <= 0 || n > len(buf) {
			t.Fatalf("%s: encoded length %d outside (0, %d]", name, n, len(buf))
		}
		out := make([]float64, len(vals))
		if err := DecodeFloatColumn(buf[:n], len(vals), out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for i, v := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: %x != %x", name, i, math.Float64bits(out[i]), math.Float64bits(v))
			}
		}
	}
}

// TestFloatColumnTruncated: a truncated block must fail loudly, not decode
// garbage.
func TestFloatColumnTruncated(t *testing.T) {
	vals := []float64{1, 2, 4, 8, 1e9, -3}
	buf := make([]byte, MaxFloatColumnSize(len(vals)))
	n := EncodeFloatColumn(buf, vals)
	out := make([]float64, len(vals))
	if err := DecodeFloatColumn(buf[:5], len(vals), out); err == nil {
		t.Fatal("header-truncated column decoded")
	}
	// A block cut mid-payload must either error or be caught by the tag
	// array bound.
	if err := DecodeFloatColumn(buf[:n-(n-packedColHeader)/2], len(vals), out); err == nil {
		t.Fatal("payload-truncated column decoded")
	}
}

// TestGetBitsWordMatchesBytewise holds the word-at-a-time field read to the
// bytewise reference: every width 0–64 at every bit offset 0–7 of every byte
// that has nine bytes of buffer ahead of it — fields inside one word, fields
// that end on its last bit, fields that spill into the ninth byte — over
// all-ones, alternating and random bits. (The fields of a block's last 8
// bytes go through the bytewise loop itself: TestFloatColumnTruncatedEverywhere.)
func TestGetBitsWordMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	bufs := [3][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	for i := range bufs[0] {
		bufs[0][i], bufs[1][i], bufs[2][i] = 0xff, 0xa5, byte(rng.Intn(256))
	}
	for _, buf := range bufs {
		for n := uint(0); n <= 64; n++ {
			for pos := uint(0); pos>>3+9 <= uint(len(buf)); pos++ {
				got := getBits(buf, pos, n)
				if want, _ := getBitsBytewise(buf, pos, n); got != want {
					t.Fatalf("width %d at bit %d (byte %d of %d, offset %d): %#x, bytewise %#x",
						n, pos, pos>>3, len(buf), pos&7, got, want)
				}
			}
		}
	}
}

// TestFloatColumnTruncatedEverywhere cuts columns of every width class — and
// of 64-bit escapes, whose fields straddle a word at every odd offset — at
// every byte, so that every field takes its turn among the last of a block,
// where the decoder reads bytewise: each proper prefix fails, none panics, and
// the whole block, with its capacity clipped so that a read past it would,
// decodes.
func TestFloatColumnTruncatedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, c := range []struct {
		name string
		next func(i int) float64
	}{
		{"narrow", func(i int) float64 { return 100 + 0.25*float64(i) + float64(rng.Intn(3)) }},
		{"mixed", func(i int) float64 { return math.Float64frombits(uint64(i*i) << uint(rng.Intn(40))) }},
		{"escapes", func(int) float64 { return math.Float64frombits(rng.Uint64()) }},
	} {
		name := c.name
		vals := make([]float64, 41)
		for i := range vals {
			vals[i] = c.next(i)
		}
		buf := make([]byte, MaxFloatColumnSize(len(vals)))
		size := EncodeFloatColumn(buf, vals)
		out := make([]float64, len(vals))
		for cut := 0; cut < size; cut++ {
			if DecodeFloatColumn(buf[:cut:cut], len(vals), out) == nil {
				t.Fatalf("%s: %d of %d bytes decoded", name, cut, size)
			}
		}
		if err := DecodeFloatColumn(buf[:size:size], len(vals), out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: %x != %x", name, i, math.Float64bits(out[i]), math.Float64bits(v))
			}
		}
	}
}

// FuzzFloatColumn covers the one column codec behind both FSC2 sidecar pages
// and the wire's columns. On arbitrary bytes and counts DecodeFloatColumn
// returns an error or n values, never panicking and never reading past the
// block it was handed — and it refuses any block shorter than
// MinFloatColumnSize(n), the check a decoder makes before allocating n's
// claim. The same bytes read as float64 bit patterns (NaN payloads, signed
// zeros, whatever they spell) survive encode and decode bit for bit, in an
// encoding within the size bounds.
func FuzzFloatColumn(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{2, 1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0xff}, 5)
	smooth := make([]byte, MaxFloatColumnSize(64))
	ramp := make([]float64, 64)
	for i := range ramp {
		ramp[i] = 100 + 0.25*float64(i)
	}
	f.Add(smooth[:EncodeFloatColumn(smooth, ramp)], 64)
	// Long columns of every width class, whole and cut mid-payload: most of
	// each decodes four entries a step, its last ones one at a time.
	rng := rand.New(rand.NewSource(66))
	for _, next := range []func(i int) float64{
		func(i int) float64 { return 100 + 0.25*float64(i) + float64(rng.Intn(3)) },
		func(i int) float64 { return math.Float64frombits(uint64(i*i) << uint(rng.Intn(40))) },
		func(int) float64 { return math.Float64frombits(rng.Uint64()) },
	} {
		vals := make([]float64, 301)
		for i := range vals {
			vals[i] = next(i)
		}
		buf := make([]byte, MaxFloatColumnSize(len(vals)))
		size := EncodeFloatColumn(buf, vals)
		f.Add(buf[:size], len(vals))
		f.Add(buf[:size*3/4], len(vals))
	}
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n = n % 4096; n > 0 {
			// Exactly the block, capacity clipped: a read past it would panic.
			block := append(make([]byte, 0, len(data)), data...)
			got, want := make([]float64, n), make([]float64, n)
			err := DecodeFloatColumn(block, n, got)
			if err == nil && len(data) < MinFloatColumnSize(n) {
				t.Fatalf("decoded %d values from %d bytes, below the %d-byte floor", n, len(data), MinFloatColumnSize(n))
			}
			if oerr := decodeColumnOracle(block, n, want); (err == nil) != (oerr == nil) {
				t.Fatalf("%d values from %d bytes: error %v, one entry at a time %v", n, len(data), err, oerr)
			}
			if !sameBits(got, want) {
				t.Fatalf("%d values from %d bytes differ from one entry at a time:\n got %v\nwant %v", n, len(data), got, want)
			}
		} else if DecodeFloatColumn(data, n, nil) == nil {
			t.Fatalf("decoded a column of %d values", n)
		}

		vals := make([]float64, len(data)/8)
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		buf := make([]byte, MaxFloatColumnSize(len(vals)))
		size := EncodeFloatColumn(buf, vals)
		if size < MinFloatColumnSize(len(vals)) || size > len(buf) {
			t.Fatalf("%d values encoded in %d bytes, outside [%d, %d]", len(vals), size, MinFloatColumnSize(len(vals)), len(buf))
		}
		out := make([]float64, len(vals))
		if err := DecodeFloatColumn(buf[:size], len(vals), out); err != nil {
			t.Fatalf("decode of an encoded column: %v", err)
		}
		for i, v := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(v) {
				t.Fatalf("value %d: %x came back %x", i, math.Float64bits(v), math.Float64bits(out[i]))
			}
		}
	})
}

// BenchmarkDecodeColumn decodes one full packed sidecar page's worth of a
// smooth, a noisy and a random column, four entries a step and, for
// comparison, one at a time (the oracle), and reports ns/entry.
func BenchmarkDecodeColumn(b *testing.B) {
	const n = 1020
	rng := rand.New(rand.NewSource(67))
	for _, c := range []struct {
		name string
		next func(i int) float64
	}{
		{"smooth", func(i int) float64 { return 100 + 0.25*float64(i) }},
		{"noisy", func(i int) float64 { return 100 + 0.25*float64(i) + rng.Float64() }},
		{"random", func(int) float64 { return math.Float64frombits(rng.Uint64()) }},
	} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = c.next(i)
		}
		buf := make([]byte, MaxFloatColumnSize(n))
		block := buf[:EncodeFloatColumn(buf, vals)]
		out := make([]float64, n)
		for _, d := range []struct {
			name   string
			decode func([]byte, int, []float64) error
		}{{"quad", decodeColumn}, {"entry", decodeColumnOracle}} {
			b.Run(c.name+"/"+d.name, func(b *testing.B) {
				for b.Loop() {
					if err := d.decode(block, n, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			})
		}
	}
}
