package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

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
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n = n % 4096; n > 0 {
			// Exactly the block, capacity clipped: a read past it would panic.
			block := append(make([]byte, 0, len(data)), data...)
			err := DecodeFloatColumn(block, n, make([]float64, n))
			if err == nil && len(data) < MinFloatColumnSize(n) {
				t.Fatalf("decoded %d values from %d bytes, below the %d-byte floor", n, len(data), MinFloatColumnSize(n))
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
