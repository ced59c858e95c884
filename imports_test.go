package fielddb

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductionImportsNoMeasurement keeps imports leaf-ward: the library,
// the serving tier and the commands that ship build without either measuring
// system (internal/bench, benchmark/), the related-work baselines the
// measurements compare against (internal/intervaltree, internal/ipindex) or
// the future-work magnitude index (internal/magnitude). The instruments and
// examples import production code, never the reverse.
func TestProductionImportsNoMeasurement(t *testing.T) {
	production := []string{".", "./internal/serve", "./cmd/fieldserve", "./cmd/fieldquery", "./cmd/fieldgen"}
	for _, pkg := range production {
		out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			switch dep {
			case "fielddb/internal/bench", "fielddb/benchmark",
				"fielddb/internal/intervaltree", "fielddb/internal/ipindex", "fielddb/internal/magnitude":
				t.Errorf("%s imports %s", pkg, dep)
			}
		}
	}
}
