package storage

// Exported surface of the FSC2 column codec (sidecar.go): the serving tier's
// binary wire format packs geometry coordinates and per-member stat columns
// with the same predictor + zigzag + width-class bit-packing the packed
// interval sidecar uses on disk, so one codec — property-tested against
// adversarial columns — backs both the storage plane and the wire.
//
// The codec operates on raw float64 bit patterns, so round trips are exact
// for every value (NaN payloads and signed zeros included), and integer
// columns can ride it losslessly through math.Float64frombits: consecutive
// small integers have small bit-pattern deltas, which is exactly the case the
// delta predictor compresses best.

// EncodeFloatColumn writes vals as one packed column block into dst and
// returns the encoded byte length. dst must be zeroed over its first
// MaxFloatColumnSize(len(vals)) bytes (the bit packer ORs into place) and at
// least that large; vals must be non-empty.
func EncodeFloatColumn(dst []byte, vals []float64) int {
	return encodeColumn(dst, vals)
}

// DecodeFloatColumn decodes a column block of n entries from src into
// out[:n]. src may extend past the column's end (the header bounds every
// read). Bytes and count may both be lies: a block too short for n entries, a
// corrupt header, n < 1 or an out shorter than n is an error, never a panic.
func DecodeFloatColumn(src []byte, n int, out []float64) error {
	return decodeColumn(src, n, out)
}

// MaxFloatColumnSize bounds the encoded size of an n-entry column: the
// header, the 2-bit tag array, and every residual at the full 64-bit width.
// The optimal width-class sweep never exceeds it.
func MaxFloatColumnSize(n int) int {
	if n <= 0 {
		return packedColHeader
	}
	return packedColHeader + (2*(n-1)+7)/8 + 8*(n-1)
}

// MinFloatColumnSize is the floor twin of MaxFloatColumnSize: the header and
// the 2-bit tag array, every residual zero. A decoder handed a count and a
// block checks the block against it before allocating the count's claim.
func MinFloatColumnSize(n int) int {
	if n <= 0 {
		return packedColHeader
	}
	return packedColHeader + (2*(n-1)+7)/8
}
