//go:build !race

// Building I-All by insertion over the 256×256 fixture takes seconds, many
// times that under the race detector, and the digests test arithmetic, not
// concurrency: the file runs in plain builds only.

package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"fielddb/internal/grid"
	"fielddb/internal/rstar"
	"fielddb/internal/storage"
	"fielddb/internal/workload"
)

// treeDigest hashes the persisted node pages of tree in page order. Persist
// allocates one page per node, root first, depth first, so the pages are the
// run [root, root+nodes). A directory entry's child reference is hashed
// relative to the root, so the digest pins the tree and the order of its
// pages, not where on the pager it begins.
func treeDigest(t *testing.T, tree *rstar.Tree, pager *storage.Pager) string {
	t.Helper()
	qc := pager.BeginQuery()
	defer qc.Release()
	h := sha256.New()
	first := tree.RootPage()
	// rstar's node page: level u16, entry count u16, an 8-byte header, then
	// per entry lo, hi f64 and a u64 reference.
	const entry = 24
	err := qc.ReadRun(first, first+storage.PageID(tree.PersistedNodes()-1), func(_ storage.PageID, page []byte) bool {
		page = bytes.Clone(page)
		if binary.LittleEndian.Uint16(page[0:2]) > 0 {
			for i := range int(binary.LittleEndian.Uint16(page[2:4])) {
				ref := page[8+i*entry+entry-8:]
				binary.LittleEndian.PutUint64(ref, binary.LittleEndian.Uint64(ref)-uint64(first))
			}
		}
		h.Write(page)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreePagesPinned holds the R*-trees the 256×256 benchmark fixture builds
// to pinned digests of their node pages: the subfield tree and I-All's tree,
// both built by R* insertion, each again after four update batches (I-All's
// delete and re-insert cell entries; the subfield tree's regroup patch runs
// Delete, condense and its forced reinserts, then Insert). The simulated page
// counts of every suite
// follow from these pages, so a change to ChooseSubtree's arithmetic, its
// candidate order or the split moves a digest before it moves a gated row.
func TestTreePagesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds I-All by insertion over 65 536 cells")
	}
	want := map[string]string{
		"I-Hilbert":         "05824f822b403198db2b6129e4b1bfc382991ccc7fd4b581b22a8f776748760f",
		"I-Hilbert/updated": "6c7da47f4f01eb3b8df5369eb024d0d7f076c3ce4cc9a2a563e9ca0875ff7713",
		"I-All":             "c4ecf6e5ef7952853a0c174a3b6122e7fd696af416f4fe77240bf5820c5648a1",
		"I-All/updated":     "96afe3997f25aefa03f3660e3cd3404ee4a24db0b7f69af979835ee2720dda04",
	}
	got := map[string]string{}
	var f *grid.DEM
	for _, m := range []Method{MethodIHilbert, MethodIAll} {
		// An update batch writes the field's samples: each method starts on
		// the fixture as generated.
		var err error
		if f, err = workload.Terrain(256, 4217); err != nil {
			t.Fatal(err)
		}
		pager := newPager()
		eng, err := buildIx(f, pager, BuildOptions{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		got[string(m)] = treeDigest(t, eng.cur().parts[0].tree, pager)
		rng := rand.New(rand.NewSource(4217))
		vr := f.ValueRange()
		for b := 0; b < 4; b++ {
			ups := make([]SampleUpdate, 16)
			for i := range ups {
				ups[i] = SampleUpdate{Sample: rng.Intn(f.NumSamples()), Value: vr.Lo + rng.Float64()*vr.Length()}
			}
			if _, err := eng.ApplyUpdates(context.Background(), f, ups); err != nil {
				t.Fatal(err)
			}
		}
		got[string(m)+"/updated"] = treeDigest(t, eng.cur().parts[0].tree, pager)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s tree pages hash to %s, want %s", name, got[name], w)
		}
	}
}
