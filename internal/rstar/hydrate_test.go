package rstar

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"fielddb/internal/storage"
)

// buildPersisted returns a persisted tree plus its pager, with n random
// interval entries whose payloads are 0..n-1.
func buildPersisted(t *testing.T, n int, seed int64) (*Tree, *storage.Pager) {
	t.Helper()
	tr, err := New(Params{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		lo := rng.Float64() * 1000
		if err := tr.Insert(Entry{MBR: Interval1D(lo, lo+rng.Float64()*2), Data: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pager := storage.NewPager(storage.NewMemDisk(512), storage.DefaultDiskModel, 0)
	if err := tr.Persist(pager); err != nil {
		t.Fatal(err)
	}
	return tr, pager
}

func collect(t *testing.T, tr *Tree, q MBR) []uint64 {
	t.Helper()
	var got []uint64
	tr.Search(q, func(e Entry) bool { got = append(got, e.Data); return true })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// TestPagedOnlyInsertSentinel pins both halves of the read-only contract: the
// typed sentinel matches with errors.Is, and the rendered message is byte-for-
// byte what Insert returned before the sentinel existed.
func TestPagedOnlyInsertSentinel(t *testing.T) {
	built, pager := buildPersisted(t, 500, 7)
	opened, err := OpenPaged(pager, built.RootPage(), built.params, built.Len(), built.PersistedNodes(), built.Height())
	if err != nil {
		t.Fatal(err)
	}
	insErr := opened.Insert(Entry{MBR: Interval1D(0, 1), Data: 1})
	if insErr == nil {
		t.Fatal("Insert on paged-only handle succeeded")
	}
	if !errors.Is(insErr, ErrReadOnlyIndex) {
		t.Fatalf("Insert error %q does not wrap ErrReadOnlyIndex", insErr)
	}
	const want = "rstar: tree is a paged-only handle; Insert unavailable"
	if insErr.Error() != want {
		t.Fatalf("Insert error message changed:\n got %q\nwant %q", insErr, want)
	}
}

// TestHydratePagedHandle loads a persisted tree's pages into an updatable
// copy and checks it answers identically, accepts mutations, and leaves the
// original handle untouched.
func TestHydratePagedHandle(t *testing.T) {
	built, pager := buildPersisted(t, 3000, 11)
	opened, err := OpenPaged(pager, built.RootPage(), built.params, built.Len(), built.PersistedNodes(), built.Height())
	if err != nil {
		t.Fatal(err)
	}
	qc := pager.BeginQuery()
	hyd, err := opened.Hydrate(qc)
	if err != nil {
		t.Fatal(err)
	}
	// Every node page is loaded once, charged to the reader it came through.
	if st := qc.Stats(); st.Reads != built.PersistedNodes() {
		t.Fatalf("hydration charged %d reads for %d node pages", st.Reads, built.PersistedNodes())
	}
	if hyd.IsPagedOnly() {
		t.Fatal("hydrated tree is still paged-only")
	}
	if hyd.Len() != built.Len() {
		t.Fatalf("hydrated Len = %d, want %d", hyd.Len(), built.Len())
	}
	if err := hyd.CheckInvariants(); err != nil {
		t.Fatalf("hydrated tree invariants: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 30; q++ {
		lo := rng.Float64() * 1000
		query := Interval1D(lo, lo+5)
		want := collect(t, built, query)
		got := collect(t, hyd, query)
		if len(want) != len(got) {
			t.Fatalf("query %d: hydrated %d vs built %d results", q, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d: result %d differs", q, i)
			}
		}
	}
	// The copy is updatable...
	if err := hyd.Insert(Entry{MBR: Interval1D(-10, -9), Data: 99999}); err != nil {
		t.Fatalf("Insert on hydrated tree: %v", err)
	}
	if got := collect(t, hyd, Interval1D(-10, -9)); len(got) != 1 || got[0] != 99999 {
		t.Fatalf("inserted entry not found: %v", got)
	}
	if !hyd.Delete(Entry{MBR: Interval1D(-10, -9), Data: 99999}) {
		t.Fatal("Delete on hydrated tree failed")
	}
	// ...and the original handle is untouched.
	if !opened.IsPagedOnly() {
		t.Fatal("hydration mutated the source handle")
	}
	if err := opened.Insert(Entry{MBR: Interval1D(0, 1), Data: 1}); !errors.Is(err, ErrReadOnlyIndex) {
		t.Fatalf("source handle Insert error = %v, want ErrReadOnlyIndex", err)
	}
}

// TestHydrateInMemoryTree deep-copies a tree that already has in-memory
// nodes: mutations of the copy must not leak into the source.
func TestHydrateInMemoryTree(t *testing.T) {
	built, _ := buildPersisted(t, 800, 3)
	cp, err := built.Hydrate(nil) // in-memory nodes: no page is read
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != built.Len() {
		t.Fatalf("copy Len = %d, want %d", cp.Len(), built.Len())
	}
	before := built.Len()
	if err := cp.Insert(Entry{MBR: Interval1D(5000, 5001), Data: 424242}); err != nil {
		t.Fatal(err)
	}
	if built.Len() != before {
		t.Fatalf("insert into copy changed source Len: %d -> %d", before, built.Len())
	}
	if got := collect(t, built, Interval1D(5000, 5001)); len(got) != 0 {
		t.Fatalf("insert into copy visible in source: %v", got)
	}
}

// TestHydrateUnpersisted pins the error for a handle with nothing to load.
func TestHydrateUnpersisted(t *testing.T) {
	tr, _ := New(Params{})
	tr.root = nil // simulate a broken paged-only handle with no pager
	if _, err := tr.Hydrate(nil); err == nil {
		t.Fatal("Hydrate with no pages succeeded")
	}
}
