package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestTiledMeasureSmoke gates the large-terrain suite's plumbing without the
// full 1024×1024 measurement: a reduced side exercises the same specs, row
// naming, and the built-in answer cross-check. Under -short the terrain shrinks
// again.
func TestTiledMeasureSmoke(t *testing.T) {
	side := 512
	if testing.Short() {
		side = 256
	}
	rows, err := TiledMeasure(side)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(Selectivities); len(rows) != want {
		t.Fatalf("TiledMeasure(%d) returned %d rows, want %d", side, len(rows), want)
	}
	for _, sel := range Selectivities {
		flat, ok := rows[fmt.Sprintf("Tiled/LinearScan/side=%d/sel=%.2f", side, sel)]
		if !ok {
			t.Fatalf("missing untiled row at sel=%.2f; have %v", sel, rowNames(rows))
		}
		for _, label := range []string{"Tiled-LinearScan/packed", "Tiled-I-Hilbert"} {
			tiled, ok := rows[fmt.Sprintf("Tiled/%s/side=%d/sel=%.2f", label, side, sel)]
			if !ok {
				t.Fatalf("missing %s row at sel=%.2f; have %v", label, sel, rowNames(rows))
			}
			// The planner may only save pages over the untiled scan; a tiled
			// row that reads more would mean pruning or the tile index regressed.
			if tiled.PagesOp > flat.PagesOp {
				t.Errorf("sel=%.2f: %s reads %.1f pages/op, untiled %.1f", sel, label, tiled.PagesOp, flat.PagesOp)
			}
			if tiled.PagesOp <= 0 || tiled.SimNsOp <= 0 {
				t.Errorf("sel=%.2f: %s row has empty metrics: %+v", sel, label, tiled)
			}
		}
	}
}

func rowNames(rows map[string]Row) string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	return strings.Join(names, ", ")
}
