//go:build !race

// The pinned trees take tens of inserts' worth of seconds under the race
// detector, and they test arithmetic, not concurrency: the file runs in plain
// builds only, as internal/core's tree digests do.

package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// nodeDigest hashes the in-memory tree depth first, children in entry order:
// per node its level and entry count, per entry its bounds' bits and, in a
// leaf, its payload. The walk order stands in for Persist's child pages, so
// two trees hash alike exactly when their pages would.
func nodeDigest(tr *Tree) string {
	h := sha256.New()
	hashNode(h, tr.root)
	return hex.EncodeToString(h.Sum(nil))
}

func hashNode(h hash.Hash, n *node) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(n.level))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(n.entries)))
	h.Write(b[:])
	for _, e := range n.entries {
		for _, v := range e.mbr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if n.isLeaf() {
			binary.LittleEndian.PutUint64(b[:], e.data)
			h.Write(b[:])
		}
	}
	for _, e := range n.entries {
		if e.child != nil {
			hashNode(h, e.child)
		}
	}
}

// tiedIntervals is 12 000 1-D entries built to tie: integer bounds on a short
// range, exact duplicates, nested runs around shared centres, and a few empty
// (+Inf, −Inf), half-infinite and whole-line intervals.
func tiedIntervals() []Entry {
	rng := rand.New(rand.NewSource(35))
	inf := math.Inf(1)
	var es []Entry
	add := func(m MBR) { es = append(es, Entry{MBR: m, Data: uint64(len(es))}) }
	for len(es) < 12000 {
		switch r := rng.Intn(100); {
		case r < 50:
			lo := float64(rng.Intn(400))
			add(Interval1D(lo, lo+float64(rng.Intn(6))))
		case r < 70 && len(es) > 0:
			add(es[rng.Intn(len(es))].MBR)
		case r < 90:
			c := float64(rng.Intn(400))
			for w := 0.0; w < float64(1+rng.Intn(8)); w++ {
				add(Interval1D(c-w, c+w))
			}
		case r < 93:
			add(Interval1D(inf, -inf))
		case r < 96:
			add(Interval1D(-inf, float64(rng.Intn(400))))
		case r < 99:
			add(Interval1D(float64(rng.Intn(400)), inf))
		default:
			add(Interval1D(-inf, inf))
		}
	}
	return es
}

// TestInsertedTreesPinned holds a tree built by R* insertion on default pages
// to a digest of its nodes: a tree full of ties, whose finite entries are then
// deleted one in four (condense and reinsert at every level). A change to
// ChooseSubtree's arithmetic, its candidate order, the forced reinsert's order
// or the split's moves the digest.
func TestInsertedTreesPinned(t *testing.T) {
	const want = "c2b01d528449750763b4eff00ac8dfe0bf432afd370f2cd4f96079ec97e228fb"
	tr, err := New(Params{})
	if err != nil {
		t.Fatal(err)
	}
	entries := tiedIntervals()
	for _, e := range entries {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range entries {
		if i%4 == 0 && e.MBR[0] <= e.MBR[1] && !tr.Delete(e) {
			t.Fatalf("Delete(%v) found nothing", e)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := nodeDigest(tr); got != want {
		t.Errorf("the tree of ties hashes to %s, want %s", got, want)
	}
}
