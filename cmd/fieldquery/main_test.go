package main

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fielddb"
	"fielddb/internal/fio"
	"fielddb/internal/workload"
)

// runOut runs the command on args and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

// TestStoredIndexAnswersLikeTheDataset: a stored index saved from a DEM
// answers -at with the DB's value, and -range, -above and -below with the
// answers the dataset gives through -db.
func TestStoredIndexAnswersLikeTheDataset(t *testing.T) {
	dir := t.TempDir()
	f, err := workload.Terrain(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, index := filepath.Join(dir, "terrain.fdb"), filepath.Join(dir, "terrain.fidx")
	if err := fio.SaveFile(data, f); err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.SaveIndex(index); err != nil {
		t.Fatal(err)
	}

	p := f.Bounds().Center()
	want, err := db.PointQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	at := fmt.Sprintf("%g,%g", p.X, p.Y)
	got, err := runOut(t, "-index", index, "-at", at)
	if err != nil || got != fmt.Sprintf("F(%v) = %g\n", p, want) {
		t.Fatalf("-index -at printed %q, %v; the DB answers %g", got, err, want)
	}

	vr := f.ValueRange()
	mid := (vr.Lo + vr.Hi) / 2
	for _, query := range [][]string{
		{"-at", at},
		{"-range", fmt.Sprintf("%g:%g", mid, mid+(vr.Hi-vr.Lo)/10)},
		{"-above", fmt.Sprint(mid)},
		{"-below", fmt.Sprint(mid)},
	} {
		stored, err := runOut(t, append([]string{"-index", index}, query...)...)
		if err != nil {
			t.Fatalf("-index %v: %v", query, err)
		}
		built, err := runOut(t, append([]string{"-db", data}, query...)...)
		if err != nil {
			t.Fatalf("-db %v: %v", query, err)
		}
		if answer(stored) != answer(built) || answer(stored) == "" {
			t.Errorf("%v: -index printed\n%s-db printed\n%s", query, stored, built)
		}
	}
}

// answer is the command's output without its io line, which counts the pages
// of the index it happened to read.
func answer(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "io: ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestStoredTINAnswersPointQuery: a stored index saved from a TIN carries
// its cell buckets, so -at prints the DB's value, and its value queries
// answer.
func TestStoredTINAnswersPointQuery(t *testing.T) {
	mesh, err := fielddb.NoiseTIN(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(mesh, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	index := filepath.Join(t.TempDir(), "tin.fidx")
	if err := db.SaveIndex(index); err != nil {
		t.Fatal(err)
	}
	c := mesh.Bounds().Center()
	w, err := db.PointQuery(c)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("F(%v) = %g", c, w)
	if out, err := runOut(t, "-index", index, "-at", fmt.Sprintf("%v,%v", c.X, c.Y)); err != nil || !strings.Contains(out, want) {
		t.Fatalf("-at on a stored TIN printed %q, %v; want %q", out, err, want)
	}
	if out, err := runOut(t, "-index", index, "-above", fmt.Sprint(mesh.ValueRange().Lo)); err != nil || !strings.Contains(out, "answer:") {
		t.Fatalf("-above on a stored TIN printed %q, %v", out, err)
	}
}

// TestUsage: without -db or -index, or with a flag it does not know, the
// command reports a usage error.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-range", "1:2"}, {"-bogus"}} {
		if _, err := runOut(t, args...); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%v: %v, want a usage error", args, err)
		}
	}
}
