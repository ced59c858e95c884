//go:build !race

package bench

import (
	"sort"
	"strings"
	"testing"
)

// TestMeasureRowSet pins the gate's row set: Measure, the -bench-json entry,
// returns exactly the rows of the newest BENCH_BASELINE.json section. A
// missing row already fails -compare; this also catches one that appears, or
// a baseline row nothing measures any more.
func TestMeasureRowSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full simulated-page suite")
	}
	want, section, err := LoadRows("../../BENCH_BASELINE.json", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 54 {
		t.Fatalf("BENCH_BASELINE.json[%s] holds %d rows, want 54", section, len(want))
	}
	got, err := Measure()
	if err != nil {
		t.Fatal(err)
	}
	var diff []string
	for name := range want {
		if _, ok := got[name]; !ok {
			diff = append(diff, "-"+name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diff = append(diff, "+"+name)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("Measure rows differ from BENCH_BASELINE.json[%s] (- missing, + unexpected):\n%s",
			section, strings.Join(diff, "\n"))
	}
}
