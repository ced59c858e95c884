//go:build !race

// The race detector changes allocation counts: the check holds in a plain
// build only.

package sfc

import (
	"testing"

	"fielddb/internal/geom"
)

// TestMapperIndexAllocatesNothing: a build keys every cell by the Hilbert
// value of its center, so the key is computed on the stack.
func TestMapperIndexAllocatesNothing(t *testing.T) {
	h, _ := NewHilbert(16, 2)
	m, err := NewMapper(h, geom.Rect{Max: geom.Point{X: 256, Y: 256}})
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	if got := testing.AllocsPerRun(100, func() { sink += m.Index(geom.Point{X: 17.5, Y: 203.5}) }); got != 0 {
		t.Errorf("Mapper.Index allocates %.0f times per key, want 0", got)
	}
	_ = sink
}
