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
			add(es[rng.Intn(len(es))].MBR.Clone())
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

// gridRects is 12 000 2-D entries on an integer grid (ties on every axis,
// duplicates, rectangles nested in their neighbours) mixed with float ones.
func gridRects() []Entry {
	rng := rand.New(rand.NewSource(35))
	es := make([]Entry, 12000)
	for i := range es {
		var m MBR
		switch r := rng.Intn(10); {
		case r < 6:
			x, y := float64(rng.Intn(120)), float64(rng.Intn(120))
			m = Rect2D(x, x+float64(rng.Intn(4)), y, y+float64(rng.Intn(4)))
		case r < 8 && i > 0:
			m = es[rng.Intn(i)].MBR.Clone()
		default:
			x, y := rng.Float64()*120, rng.Float64()*120
			m = Rect2D(x, x+rng.Float64()*3, y, y+rng.Float64()*3)
		}
		es[i] = Entry{MBR: m, Data: uint64(i)}
	}
	return es
}

// TestInsertedTreesPinned holds two trees built by R* insertion on default
// pages to digests of their nodes: a 1-D tree full of ties, whose finite
// entries are then deleted one in four (condense and reinsert at every
// level), and a 2-D tree, whose ChooseSubtree and split no bulk-loaded tree
// of the engine exercises. A change to ChooseSubtree's arithmetic, its
// candidate order, the forced reinsert's order or the split's moves a digest.
func TestInsertedTreesPinned(t *testing.T) {
	cases := []struct {
		name    string
		dims    int
		entries []Entry
		want    string
	}{
		{"1-D/ties", 1, tiedIntervals(), "c2b01d528449750763b4eff00ac8dfe0bf432afd370f2cd4f96079ec97e228fb"},
		{"2-D", 2, gridRects(), "018e3b81fe887c23d5feeb2c787fd202c24e6f59ae5078be3914ce5fb2e3d453"},
	}
	for _, c := range cases {
		tr, err := New(c.dims, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.entries {
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		if c.dims == 1 {
			for i, e := range c.entries {
				if i%4 == 0 && e.MBR[0] <= e.MBR[1] && !tr.Delete(e) {
					t.Fatalf("%s: Delete(%v) found nothing", c.name, e)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := nodeDigest(tr); got != c.want {
			t.Errorf("%s tree hashes to %s, want %s", c.name, got, c.want)
		}
	}
}
