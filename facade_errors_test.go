package fielddb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fielddb/internal/core"
	"fielddb/internal/geom"
	"fielddb/internal/storage"
)

// TestFacadeTypedErrors is the error-path table test: every facade validation
// failure must match its sentinel via errors.Is, and the messages that
// predate the sentinels must stay byte-compatible.
func TestFacadeTypedErrors(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	hilbert, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hilbert.Close()
	scan, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	ctx := context.Background()
	vr := dem.ValueRange()
	iv := Interval{Lo: vr.Lo, Hi: vr.Hi}

	closed, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	tests := []struct {
		name    string
		run     func() error
		want    error
		message string // non-empty: assert the exact rendered error text
	}{
		{
			name:    "value query inverted interval",
			run:     func() error { _, err := hilbert.ValueQuery(5, 1); return err },
			want:    ErrInvertedInterval,
			message: "fielddb: inverted interval [5, 1]",
		},
		{
			name: "approx query inverted interval",
			run:  func() error { _, err := hilbert.ApproxValueQueryContext(ctx, 2, -2); return err },
			want: ErrInvertedInterval,
		},
		{
			name: "stored-index inverted interval",
			run: func() error {
				path := filepath.Join(t.TempDir(), "f.fdb")
				if err := hilbert.SaveIndex(path); err != nil {
					return err
				}
				s, err := OpenIndex(path)
				if err != nil {
					return err
				}
				defer s.Close()
				_, err = s.ValueQuery(9, 3)
				return err
			},
			want: ErrInvertedInterval,
		},
		{
			name: "open of a missing index file",
			run: func() error {
				path := filepath.Join(t.TempDir(), "missing.fdb")
				_, err := OpenIndex(path)
				if _, serr := os.Stat(path); !errors.Is(serr, fs.ErrNotExist) {
					return fmt.Errorf("a failed open left %s behind (%v): %v", path, serr, err)
				}
				return err
			},
			want: fs.ErrNotExist,
		},
		{
			name: "unknown method",
			run: func() error {
				_, err := Open(dem, Options{Method: Method("I-Bogus")})
				return err
			},
			want:    ErrUnknownMethod,
			message: `fielddb: unknown method "I-Bogus"`,
		},
		{
			name: "the Interval Quadtree is no method",
			run: func() error {
				_, err := Open(dem, Options{Method: Method("I-Quad")})
				return err
			},
			want:    ErrUnknownMethod,
			message: `fielddb: unknown method "I-Quad"`,
		},
		{
			name: "the selectivity planner is no method",
			run: func() error {
				_, err := Open(dem, Options{Method: Method("I-Auto")})
				return err
			},
			want:    ErrUnknownMethod,
			message: `fielddb: unknown method "I-Auto"`,
		},
		{
			name: "approx query without partition",
			run:  func() error { _, err := scan.ApproxValueQueryContext(ctx, vr.Lo, vr.Hi); return err },
			want: ErrNoPartition,
		},
		{
			name: "point outside the field",
			run:  func() error { _, err := hilbert.PointQuery(geom.Pt(-5, -5)); return err },
			want: ErrOutsideField,
		},
		{
			name: "update of a sample the field does not have",
			run: func() error {
				_, err := hilbert.UpdateSamples(ctx, []SampleUpdate{{Sample: dem.NumSamples(), Value: 1}})
				return err
			},
			want: ErrOutsideField,
		},
		{
			name: "value query after close",
			run:  func() error { _, err := closed.ValueQuery(vr.Lo, vr.Hi); return err },
			want: ErrClosed,
		},
		{
			name: "point query after close",
			run:  func() error { _, err := closed.PointQuery(geom.Pt(1, 1)); return err },
			want: ErrClosed,
		},
		{
			name: "approx query after close",
			run:  func() error { _, err := closed.ApproxValueQueryContext(ctx, vr.Lo, vr.Hi); return err },
			want: ErrClosed,
		},
		{
			name: "save after close",
			run: func() error {
				return closed.SaveIndex(filepath.Join(t.TempDir(), "f.fdb"))
			},
			want: ErrClosed,
		},
		{
			name: "and with no conditions",
			run:  func() error { _, err := And(nil, nil); return err },
			want: ErrBadConjunction,
		},
		{
			name: "and with mismatched lengths",
			run:  func() error { _, err := And([]*DB{hilbert}, []Interval{iv, iv}); return err },
			want: ErrBadConjunction,
		},
		{
			name: "and with nil database",
			run:  func() error { _, err := And([]*DB{hilbert, nil}, []Interval{iv, iv}); return err },
			want: ErrBadConjunction,
		},
		{
			name: "and with closed database",
			run:  func() error { _, err := And([]*DB{hilbert, closed}, []Interval{iv, iv}); return err },
			want: ErrClosed,
		},
		{
			name: "and with inverted interval",
			run: func() error {
				_, err := And([]*DB{hilbert, scan}, []Interval{iv, {Lo: 4, Hi: 0}})
				return err
			},
			want: ErrInvertedInterval,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, not %v", err, tc.want)
			}
			if tc.message != "" && err.Error() != tc.message {
				t.Fatalf("message %q, want %q", err.Error(), tc.message)
			}
		})
	}
}

// TestAndValid checks the happy path And validation leaves intact.
func TestAndValid(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dem, Options{Method: LinearScan})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	vr := dem.ValueRange()
	res, err := And([]*DB{a, b}, []Interval{
		{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*0.6},
		{Lo: vr.Lo + vr.Length()*0.3, Hi: vr.Hi},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerField) != 2 || res.Area <= 0 {
		t.Fatalf("conjunction: %+v", res)
	}
}

func TestOpenIndexWith(t *testing.T) {
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	path := filepath.Join(t.TempDir(), "terrain.fdb")
	if err := db.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	vr := dem.ValueRange()
	want, err := db.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6)
	if err != nil {
		t.Fatal(err)
	}

	col := NewTraceCollector(4)
	s, err := OpenIndexWith(path, OpenIndexOptions{
		PoolPages: 64,
		Workers:   2,
		Tracer:    col,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ValueQuery(vr.Lo+vr.Length()*0.4, vr.Lo+vr.Length()*0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got.CellsMatched != want.CellsMatched || got.Area != want.Area {
		t.Fatalf("stored answer diverges: %+v vs %+v", got, want)
	}
	if col.Total() != 1 {
		t.Fatalf("stored-index tracer got %d traces", col.Total())
	}
	m := s.Metrics()
	if m.Queries != 1 {
		t.Fatalf("stored-index metrics queries %d", m.Queries)
	}
	if !strings.Contains(m.String(), "I-Hilbert") {
		t.Fatalf("metrics rendering: %s", m.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.ValueQuery(vr.Lo, vr.Hi); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
}

// TestUnsupportedVersionsRefused: a database file whose superblock or catalog
// header names any catalog version but the current one — the two-layout
// version 5, version 7 with its quadtree threshold word, version 9 without the
// grid record, version 10, whose DEM files differ from this one's in the
// version word alone, and the next one included — is refused with the typed
// error, by core.Open and by the facade, before anything else in it is
// interpreted. The current version's row is the control: the same rewrite
// leaves a file that opens.
func TestUnsupportedVersionsRefused(t *testing.T) {
	const current = 11
	dem, err := TerrainDEM(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const ps = storage.DefaultPageSize
	for _, kind := range []struct {
		name string
		opts Options
	}{
		{"flat", Options{}},
		{"tiled", Options{Method: LinearScan, TileSide: 8}},
	} {
		db, err := Open(dem, kind.opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh := filepath.Join(dir, kind.name+".fidx")
		if err := db.SaveIndex(fresh); err != nil {
			t.Fatal(err)
		}
		db.Close()
		raw, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		super := len(raw) - ps
		catalog := int(binary.LittleEndian.Uint32(raw[super+8:])) * ps
		for _, word := range []struct {
			name string
			off  int
		}{{"superblock", super + 4}, {"catalog", catalog + 4}} {
			for version := uint32(0); version <= current+1; version++ {
				t.Run(fmt.Sprintf("%s/%s/v%d", kind.name, word.name, version), func(t *testing.T) {
					tampered := append([]byte(nil), raw...)
					binary.LittleEndian.PutUint32(tampered[word.off:], version)
					path := filepath.Join(t.TempDir(), "tampered.fidx")
					if err := os.WriteFile(path, tampered, 0o644); err != nil {
						t.Fatal(err)
					}
					eng, err := core.Open(path, 0)
					si, ferr := OpenIndex(path)
					if version == current {
						if err != nil || ferr != nil {
							t.Fatalf("the current version: core open %v, OpenIndex %v", err, ferr)
						}
						eng.Close()
						si.Close()
						return
					}
					if !errors.Is(err, core.ErrUnsupportedVersion) {
						t.Fatalf("core open: %v, want ErrUnsupportedVersion", err)
					}
					if !errors.Is(ferr, ErrUnsupportedVersion) {
						t.Fatalf("OpenIndex: %v, want ErrUnsupportedVersion", ferr)
					}
				})
			}
		}
	}
}
