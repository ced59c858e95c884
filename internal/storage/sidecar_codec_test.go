package storage

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"fielddb/internal/field"
	"fielddb/internal/geom"
)

func newSidecarPager(t *testing.T) *Pager {
	t.Helper()
	return NewPager(NewMemDisk(DefaultPageSize), DefaultDiskModel, 0)
}

// lcg is a tiny deterministic generator so adversarial columns are
// reproducible without a seed source.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func (l *lcg) float() float64 {
	return math.Float64frombits(l.next()>>12|0x3FF0000000000000) - 1 // [0,1)
}

// adversarialColumns builds the named (lo, hi) column pairs the codec must
// round-trip bit-exactly.
func adversarialColumns(n int) map[string][2][]float64 {
	cols := map[string][2][]float64{}
	mk := func(name string, f func(i int) (float64, float64)) {
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range lo {
			lo[i], hi[i] = f(i)
		}
		cols[name] = [2][]float64{lo, hi}
	}
	mk("all-equal", func(int) (float64, float64) { return 731.25, 731.25 })
	mk("monotone", func(i int) (float64, float64) { return float64(i), float64(i + 2) })
	mk("monotone-fractional", func(i int) (float64, float64) {
		return 200 + 0.03125*float64(i), 200.5 + 0.03125*float64(i)
	})
	mk("extreme", func(i int) (float64, float64) {
		switch i % 6 {
		case 0:
			return -math.MaxFloat64, math.MaxFloat64
		case 1:
			return math.SmallestNonzeroFloat64, 1
		case 2:
			return math.Copysign(0, -1), 0
		case 3:
			return -1e300, 1e-300
		case 4:
			return math.Inf(-1), math.Inf(1)
		default:
			return -0.1, 0.1
		}
	})
	r := lcg(4217)
	mk("random-bits", func(int) (float64, float64) {
		// Raw bit patterns, NaN payloads included: the codec works on
		// uint64 images, so even non-values must survive.
		return math.Float64frombits(r.next()), math.Float64frombits(r.next())
	})
	r2 := lcg(9)
	mk("terrain-like", func(i int) (float64, float64) {
		base := 800 + 400*math.Sin(float64(i)/37) + 25*r2.float()
		return base, base + 10*r2.float()
	})
	return cols
}

func scanAll(t *testing.T, s *IntervalSidecar, r PageReader) (lo, hi []float64) {
	t.Helper()
	next := 0
	err := s.ScanRange(r, 0, s.Count(), func(base int, l, h []float64) bool {
		if base != next {
			t.Fatalf("scan base %d, want %d", base, next)
		}
		lo = append(lo, l...)
		hi = append(hi, h...)
		next = base + len(l)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return lo, hi
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSidecarCodecRoundTrip checks both codecs reproduce every adversarial
// column bit-exactly, across full scans, subrange scans, and reopen.
func TestSidecarCodecRoundTrip(t *testing.T) {
	for _, codec := range []string{SidecarCodecRaw, SidecarCodecPacked} {
		for name, cols := range adversarialColumns(700) {
			t.Run(codec+"/"+name, func(t *testing.T) {
				lo, hi := cols[0], cols[1]
				p := newSidecarPager(t)
				s, err := BuildIntervalSidecarWith(p, lo, hi, codec)
				if err != nil {
					t.Fatal(err)
				}
				if s.Codec() != codec {
					t.Fatalf("codec %q, want %q", s.Codec(), codec)
				}
				gotLo, gotHi := scanAll(t, s, p)
				if !sameBits(gotLo, lo) || !sameBits(gotHi, hi) {
					t.Fatal("full scan not bit-identical to input")
				}
				// Subranges, including ones inside a single page.
				for _, rng := range [][2]int{{0, 1}, {13, 200}, {199, 201}, {650, 700}, {300, 301}} {
					err := s.ScanRange(p, rng[0], rng[1], func(base int, l, h []float64) bool {
						for i := range l {
							if math.Float64bits(l[i]) != math.Float64bits(lo[base+i]) ||
								math.Float64bits(h[i]) != math.Float64bits(hi[base+i]) {
								t.Fatalf("subrange %v: entry %d differs", rng, base+i)
							}
						}
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				// Reopen from catalog geometry.
				var ro *IntervalSidecar
				if codec == SidecarCodecRaw {
					ro, err = OpenIntervalSidecar(p, s.FirstPage(), s.NumPages(), s.Count())
				} else {
					ro, err = OpenIntervalSidecarPacked(p, s.FirstPage(), s.Count(), s.PageFirstPositions())
				}
				if err != nil {
					t.Fatal(err)
				}
				gotLo, gotHi = scanAll(t, ro, p)
				if !sameBits(gotLo, lo) || !sameBits(gotHi, hi) {
					t.Fatal("reopened scan not bit-identical to input")
				}
			})
		}
	}
}

// TestSidecarPageBoundaries pins the page-boundary arithmetic at exactly
// one raw page, one page plus one entry, and exactly two pages — the counts
// where an off-by-one in PageFor or ScanRange trimming would show.
func TestSidecarPageBoundaries(t *testing.T) {
	per := SidecarEntriesPerPage(DefaultPageSize) // 255
	for _, codec := range []string{SidecarCodecRaw, SidecarCodecPacked} {
		for _, n := range []int{per, per + 1, 2 * per} {
			lo := make([]float64, n)
			hi := make([]float64, n)
			r := lcg(uint64(n))
			for i := range lo {
				// Incompressible bits keep the packed codec near raw
				// density, forcing multiple pages for the boundary cases.
				lo[i] = math.Float64frombits(r.next() &^ (1 << 63))
				hi[i] = lo[i] + 1
			}
			p := newSidecarPager(t)
			s, err := BuildIntervalSidecarWith(p, lo, hi, codec)
			if err != nil {
				t.Fatal(err)
			}
			if codec == SidecarCodecRaw {
				wantPages := (n + per - 1) / per
				if s.NumPages() != wantPages {
					t.Fatalf("codec %s n=%d: %d pages, want %d", codec, n, s.NumPages(), wantPages)
				}
			}
			// Every position must map to a page whose decode returns the
			// position's exact values.
			for pos := 0; pos < n; pos++ {
				pid, idx, err := s.PageFor(pos)
				if err != nil {
					t.Fatal(err)
				}
				if pid < s.FirstPage() || pid >= s.FirstPage()+PageID(s.NumPages()) {
					t.Fatalf("pos %d mapped outside segment", pos)
				}
				var got float64
				err = s.ScanRange(p, pos, pos+1, func(base int, l, _ []float64) bool {
					if base != pos || len(l) != 1 {
						t.Fatalf("pos %d: base %d len %d", pos, base, len(l))
					}
					got = l[0]
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(lo[pos]) {
					t.Fatalf("codec %s n=%d pos %d: wrong value", codec, n, pos)
				}
				_ = idx
			}
			if _, _, err := s.PageFor(n); err == nil {
				t.Fatal("PageFor past end succeeded")
			}
			if _, _, err := s.PageFor(-1); err == nil {
				t.Fatal("PageFor(-1) succeeded")
			}
			// Scans crossing each page boundary.
			for pg := 1; pg < s.NumPages(); pg++ {
				var boundary int
				if fp := s.PageFirstPositions(); fp != nil {
					boundary = int(fp[pg])
				} else {
					boundary = pg * per
				}
				count := 0
				err := s.ScanRange(p, boundary-1, boundary+1, func(base int, l, _ []float64) bool {
					count += len(l)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if count != 2 {
					t.Fatalf("boundary scan returned %d entries, want 2", count)
				}
			}
		}
	}
}

// TestSidecarCellIntervalBitIdentity builds the columns the way the engine
// does — CellIntervalFromRecord over encoded cell records — and asserts the
// packed codec reproduces exactly those bits.
func TestSidecarCellIntervalBitIdentity(t *testing.T) {
	const n = 600
	lo := make([]float64, n)
	hi := make([]float64, n)
	r := lcg(77)
	var rec []byte
	for i := 0; i < n; i++ {
		vals := []float64{200 + 1200*r.float(), 200 + 1200*r.float(), 200 + 1200*r.float(), 200 + 1200*r.float()}
		verts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
		rec = field.AppendCell(rec[:0], &field.Cell{ID: field.CellID(i), Vertices: verts, Values: vals})
		iv, err := field.CellIntervalFromRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		lo[i], hi[i] = iv.Lo, iv.Hi
	}
	for _, codec := range []string{SidecarCodecRaw, SidecarCodecPacked} {
		p := newSidecarPager(t)
		s, err := BuildIntervalSidecarWith(p, lo, hi, codec)
		if err != nil {
			t.Fatal(err)
		}
		gotLo, gotHi := scanAll(t, s, p)
		if !sameBits(gotLo, lo) || !sameBits(gotHi, hi) {
			t.Fatalf("codec %s: scan differs from CellIntervalFromRecord bits", codec)
		}
	}
}

// TestSidecarPackedCapacity is the compression claim: on structured columns
// a packed page must hold at least 3× the raw fixed capacity.
func TestSidecarPackedCapacity(t *testing.T) {
	per := SidecarEntriesPerPage(DefaultPageSize)
	for name, cols := range adversarialColumns(3 * 1020) {
		if name != "all-equal" && name != "monotone" && name != "monotone-fractional" {
			continue
		}
		p := newSidecarPager(t)
		s, err := BuildIntervalSidecarWith(p, cols[0], cols[1], SidecarCodecPacked)
		if err != nil {
			t.Fatal(err)
		}
		fp := s.PageFirstPositions()
		if len(fp) < 2 {
			t.Fatalf("%s: want multiple pages", name)
		}
		firstPageEntries := int(fp[1])
		if firstPageEntries < 3*per {
			t.Fatalf("%s: packed page holds %d entries, want >= %d (3x raw)", name, firstPageEntries, 3*per)
		}
		if max := SidecarMaxEntriesPerPage(DefaultPageSize); firstPageEntries > max {
			t.Fatalf("%s: packed page holds %d entries, cap is %d", name, firstPageEntries, max)
		}
	}
}

// TestSidecarPackedPatch patches packed entries in place and checks the
// page re-encodes with every other entry bit-identical; filling a page with
// incompressible patches must fail with ErrSidecarPageFull and leave the
// image untouched.
func TestSidecarPackedPatch(t *testing.T) {
	cols := adversarialColumns(900)["terrain-like"]
	lo := append([]float64(nil), cols[0]...)
	hi := append([]float64(nil), cols[1]...)
	p := newSidecarPager(t)
	s, err := BuildIntervalSidecarWith(p, lo, hi, SidecarCodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	patch := func(pos int, nl, nh float64) error {
		pid, idx, err := s.PageFor(pos)
		if err != nil {
			t.Fatal(err)
		}
		page := readPage(t, p, pid)
		if err := s.PatchEntry(page, pid, idx, nl, nh); err != nil {
			return err
		}
		if err := p.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
		lo[pos], hi[pos] = nl, nh
		return nil
	}
	for _, pos := range []int{0, 1, 255, 256, 511, 899, 450} {
		if err := patch(pos, lo[pos]-3.5, hi[pos]+7.25); err != nil {
			t.Fatalf("patch %d: %v", pos, err)
		}
	}
	gotLo, gotHi := scanAll(t, s, p)
	if !sameBits(gotLo, lo) || !sameBits(gotHi, hi) {
		t.Fatal("patched scan not bit-identical to expected columns")
	}

	// Drive the first page to overflow with incompressible values. The
	// build slack absorbs a few; a page's worth of random 64-bit residuals
	// cannot fit and must fail cleanly.
	r := lcg(123)
	overflowed := false
	firstPageEntries := int(s.PageFirstPositions()[1])
	for pos := 0; pos < firstPageEntries; pos++ {
		nl := math.Float64frombits(r.next())
		nh := math.Float64frombits(r.next())
		pid, idx, err := s.PageFor(pos)
		if err != nil {
			t.Fatal(err)
		}
		page := readPage(t, p, pid)
		before := append([]byte(nil), page...)
		err = s.PatchEntry(page, pid, idx, nl, nh)
		if errors.Is(err, ErrSidecarPageFull) {
			if !bytes.Equal(page, before) {
				t.Fatal("failed patch modified the page image")
			}
			overflowed = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
	}
	if !overflowed {
		t.Fatal("incompressible patches never hit ErrSidecarPageFull")
	}
}

// TestSidecarPackedOpenValidation rejects corrupt directories.
func TestSidecarPackedOpenValidation(t *testing.T) {
	cols := adversarialColumns(600)["monotone"]
	p := newSidecarPager(t)
	s, err := BuildIntervalSidecarWith(p, cols[0], cols[1], SidecarCodecPacked)
	if err != nil {
		t.Fatal(err)
	}
	fp := s.PageFirstPositions()
	bad := [][]uint32{
		nil,                            // count > 0 with empty directory
		append([]uint32{5}, fp[1:]...), // first page not at 0
		append(append([]uint32{}, fp...), uint32(s.Count())), // empty last page
	}
	for i, dir := range bad {
		if _, err := OpenIntervalSidecarPacked(p, s.FirstPage(), s.Count(), dir); err == nil {
			t.Fatalf("corrupt directory %d accepted", i)
		}
	}
	if !ValidSidecarCodec(SidecarCodecRaw) || !ValidSidecarCodec(SidecarCodecPacked) || ValidSidecarCodec("lz4") {
		t.Fatal("ValidSidecarCodec wrong")
	}
}
