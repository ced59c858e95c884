package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// stampPage fills buf with page id's stamp: the id at the front, its
// complement at the back, and between them words no other page holds at
// their offsets, so a torn, stale or misplaced page cannot pass for it.
func stampPage(buf []byte, id PageID) []byte {
	for k := 0; k+4 <= len(buf); k += 4 {
		binary.LittleEndian.PutUint32(buf[k:], uint32(id)*0x9e3779b1+uint32(k))
	}
	binary.LittleEndian.PutUint32(buf, uint32(id))
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], ^uint32(id))
	return buf
}

// checkStamp reports whether buf holds page id's stamp, byte for byte.
func checkStamp(buf []byte, id PageID) error {
	if !bytes.Equal(buf, stampPage(make([]byte, len(buf)), id)) {
		a, b := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[len(buf)-4:])
		return fmt.Errorf("page %d reads back the stamp %d/%d, or a torn one", id, a, ^b)
	}
	return nil
}

// appendStamped allocates n pages on d, each holding its stamp.
func appendStamped(t testing.TB, d Disk, n int) {
	t.Helper()
	buf := make([]byte, d.PageSize())
	for range n {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, stampPage(buf, id)); err != nil {
			t.Fatal(err)
		}
	}
}

// runBufs returns n page buffers of size ps.
func runBufs(n, ps int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, ps)
	}
	return bufs
}

// tempFileDisk opens an empty file disk in the test's temporary directory,
// closed at cleanup.
func tempFileDisk(t *testing.T, ps int) *FileDisk {
	t.Helper()
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "disk.db"), ps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// readOnlyStamped writes a file of n stamped pages at path and opens it
// read-only, returning the disk and the file's bytes.
func readOnlyStamped(t *testing.T, path string, ps, n int) (*FileDisk, []byte) {
	t.Helper()
	w, err := OpenFileDisk(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	appendStamped(t, w, n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDiskReadOnly(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, data
}

// TestFileDiskReadOnly: a read-only disk never creates its file, and refuses
// to allocate or write without touching it.
func TestFileDiskReadOnly(t *testing.T) {
	const ps = 64
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.db")
	if _, err := OpenFileDiskReadOnly(missing, ps); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing file: %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed read-only open left a file behind: %v", err)
	}
	path := filepath.Join(dir, "ro.db")
	d, before := readOnlyStamped(t, path, ps, 3)
	if _, err := d.Alloc(); err == nil {
		t.Fatal("Alloc on a read-only disk succeeded")
	}
	if err := d.WritePage(1, make([]byte, ps)); err == nil {
		t.Fatal("WritePage on a read-only disk succeeded")
	}
	if after, _ := os.ReadFile(path); d.NumPages() != 3 || !bytes.Equal(after, before) {
		t.Fatalf("a refused append changed the disk: %d pages, file changed %v", d.NumPages(), !bytes.Equal(after, before))
	}
}

// TestTailDisk: a tail disk reads its base's pages from the base — here a
// read-only file — and keeps every page allocated after them in memory; a run
// may span both, a base page is never written, and the base file's bytes stay
// as they were. Every run of the disk is read, so the file's runs take every
// length from one page to more than one vector read, at every offset, over
// buffers holding whatever the last run left.
func TestTailDisk(t *testing.T) {
	const ps, inBase, inTail = 64, 70, 2
	path := filepath.Join(t.TempDir(), "base.db")
	base, before := readOnlyStamped(t, path, ps, inBase)
	d := NewTailDisk(base)
	appendStamped(t, d, inTail)
	if d.NumPages() != inBase+inTail || base.NumPages() != inBase {
		t.Fatalf("tail disk holds %d pages over a base of %d, want %d over %d", d.NumPages(), base.NumPages(), inBase+inTail, inBase)
	}
	all := runBufs(inBase+inTail, ps)
	for first := 0; first < inBase+inTail; first++ {
		for n := 1; first+n <= inBase+inTail; n++ {
			bufs := all[:n]
			if err := d.ReadRun(PageID(first), bufs); err != nil {
				t.Fatalf("run %d+%d: %v", first, n, err)
			}
			for i, b := range bufs {
				if err := checkStamp(b, PageID(first+i)); err != nil {
					t.Fatalf("run %d+%d: %v", first, n, err)
				}
			}
		}
	}
	if err := d.ReadRun(inBase+inTail-1, runBufs(2, ps)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("run past the end: %v", err)
	}
	if err := d.WritePage(inBase-1, make([]byte, ps)); err == nil {
		t.Fatal("a base page was written")
	}
	if err := d.WritePage(inBase, stampPage(make([]byte, ps), inBase)); err != nil {
		t.Fatalf("a tail page: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("the base file changed under a tail disk")
	}
}

// TestFileDiskConcurrentReadsAndAppends: readers run random runs over the
// published pages while one writer allocates, stamps and publishes new ones.
// Every page reads back its own stamp, the page count never falls, and the
// race detector sees no conflict: a page is written only before it is
// published, so reads need no lock. Then the disk is closed under the readers
// and another file, stamped as pages past the first's, opened — most likely
// on the descriptor number the close freed: from then on a run comes back
// with the first file's pages or an error, never the second file's.
func TestFileDiskConcurrentReadsAndAppends(t *testing.T) {
	const ps, initial, appends, readers, maxRun, afterSwap = 256, 32, 400, 4, 64, 50
	dir := t.TempDir()
	d, err := OpenFileDisk(filepath.Join(dir, "append.db"), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	appendStamped(t, d, initial)
	var published atomic.Int64 // pages whose stamp is written
	published.Store(initial)
	var closed atomic.Bool
	swapped := make(chan struct{}) // closed once the second file is open
	done := make(chan struct{})
	var runs atomic.Int64
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			bufs := runBufs(maxRun, ps)
			last, left := 0, afterSwap
			for {
				select {
				case <-done:
					return
				case <-swapped:
					if left--; left < 0 {
						return
					}
				default:
				}
				pub := int(published.Load())
				n := d.NumPages()
				if n < last || n < pub {
					t.Errorf("NumPages %d after %d, with %d pages published", n, last, pub)
					return
				}
				last = n
				k := 1 + rng.Intn(min(maxRun, pub))
				first := PageID(rng.Intn(pub - k + 1))
				if err := d.ReadRun(first, bufs[:k]); err != nil {
					if !closed.Load() {
						t.Errorf("run %d+%d: %v", first, k, err)
						return
					}
					continue
				}
				for i, b := range bufs[:k] {
					if err := checkStamp(b, first+PageID(i)); err != nil {
						t.Errorf("run %d+%d: %v", first, k, err)
						return
					}
				}
				runs.Add(1)
			}
		}()
	}
	buf := make([]byte, ps)
	for range appends {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, stampPage(buf, id)); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(id) + 1)
	}
	if d.NumPages() != initial+appends {
		t.Fatalf("%d pages after %d appends to %d", d.NumPages(), appends, initial)
	}
	closed.Store(true)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	other, err := OpenFileDisk(filepath.Join(dir, "other.db"), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i := range initial + appends {
		if _, err := other.Append(stampPage(buf, PageID(initial+appends+i))); err != nil {
			t.Fatal(err)
		}
	}
	close(swapped)
	wg.Wait() // each reader returns after afterSwap more runs
	t.Logf("%d runs read beside %d appends", runs.Load(), appends)
}

// BenchmarkFileDiskReadRun reads random runs of one and of eight pages off a
// 4 096-page file, from one goroutine and from GOMAXPROCS of them, and
// reports ns/page. Where reads share the disk without a lock, the parallel
// rows read below the serial ones; where a lock serializes them, at or above.
// `go test -run '^$' -bench BenchmarkFileDiskReadRun -mutexprofile mutex.out
// ./internal/storage` names any lock they queue on.
func BenchmarkFileDiskReadRun(b *testing.B) {
	const pages = 4096
	d, err := OpenFileDisk(filepath.Join(b.TempDir(), "bench.db"), DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	appendStamped(b, d, pages)
	var seed atomic.Int64
	for _, parallel := range []bool{false, true} {
		for _, run := range []int{1, 8} {
			name := fmt.Sprintf("serial/run=%d", run)
			if parallel {
				name = fmt.Sprintf("parallel/run=%d", run)
			}
			b.Run(name, func(b *testing.B) {
				reader := func(next func() bool) {
					rng := rand.New(rand.NewSource(seed.Add(1)))
					bufs := runBufs(run, DefaultPageSize)
					for next() {
						if err := d.ReadRun(PageID(rng.Intn(pages-run+1)), bufs); err != nil {
							b.Error(err)
							return
						}
					}
				}
				b.SetBytes(int64(run * DefaultPageSize))
				if parallel {
					b.RunParallel(func(pb *testing.PB) { reader(pb.Next) })
				} else {
					reader(b.Loop)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/page")
			})
		}
	}
}
