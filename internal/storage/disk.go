// Package storage provides the paged storage substrate of fielddb: fixed-size
// pages, in-memory and file-backed disks, an LRU buffer pool, slotted heap
// files, and — central to reproducing the paper's measurements — an I/O
// accounting layer with a simulated disk clock that distinguishes sequential
// from random page accesses.
//
// The paper's experiments use a 4 KiB page size and report query execution
// time dominated by disk I/O. All index structures in fielddb (the R*-tree
// over subfield intervals, the Hilbert-ordered cell heap file) are charged
// through a Pager so that LinearScan, I-All and I-Hilbert are compared under
// one consistent cost model.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the paper's experiments.
const DefaultPageSize = 4096

// PageID identifies a page within a Disk. Pages are numbered from 0.
type PageID uint32

// InvalidPage is a sentinel PageID that no valid page carries.
const InvalidPage = PageID(^uint32(0))

// ErrPageOutOfRange is returned when reading a page that was never allocated.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// Disk is a flat array of fixed-size pages.
//
// A page below NumPages is never rewritten once a published state references
// it: every writer in fielddb writes only pages it has just allocated — a
// heap's, a sidecar's, persisted tree nodes, a summary, a catalog — before it
// publishes them, and an update of an existing page goes to the pager's epoch
// overlays (epoch.go), never to the disk. So a disk need not exclude readers
// from its writes: a reader only reaches a page once its writer is done. (A
// MemDisk needs no such discipline: its writes are copy-on-write.)
type Disk interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// ReadRun copies pages first..first+len(bufs)-1 into bufs, each of which
	// must be PageSize() long. A run that does not fill every buffer — a page
	// past the end, or a file cut short under an open disk — is an error.
	ReadRun(first PageID, bufs [][]byte) error
	// WritePage stores buf (PageSize() bytes) as page id. The page must
	// have been allocated.
	WritePage(id PageID, buf []byte) error
	// Alloc appends a zeroed page and returns its id.
	Alloc() (PageID, error)
	// Close releases underlying resources.
	Close() error
}

// MemDisk is an in-memory Disk. It is the default substrate for experiments:
// real I/O latency is replaced by the Pager's simulated clock, which makes
// runs reproducible on any machine.
//
// Its page images are copy-on-write: WritePage installs a fresh image and
// never edits one in place, so an image, once installed, is immutable and a
// Pager lends it to its buffer pool instead of copying it (lendRun). For a
// MemDisk the Disk invariant is a property of the type: a reader holding an
// image keeps its bytes whatever is written after. Alloc installs no image —
// the first write does — so a build allocates each page once.
type MemDisk struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte // nil until the page's first write: a zeroed page
	zero     []byte   // the image of every never-written page, set by Alloc
}

// NewMemDisk returns an empty in-memory disk with the given page size.
func NewMemDisk(pageSize int) *MemDisk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemDisk{pageSize: pageSize}
}

// PageSize implements Disk.
func (d *MemDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *MemDisk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// ReadRun implements Disk under a single RLock.
func (d *MemDisk) ReadRun(first PageID, bufs [][]byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n := int(first) + len(bufs); n > len(d.pages) {
		return fmt.Errorf("%w: read run %d+%d of %d", ErrPageOutOfRange, first, len(bufs), len(d.pages))
	}
	for i, buf := range bufs {
		if img := d.pages[first+PageID(i)]; img != nil {
			copy(buf, img)
		} else {
			clear(buf)
		}
	}
	return nil
}

// lendRun is ReadRun without the copy: it fills imgs with the disk's own
// images of pages first..first+len(imgs)-1, which the caller must not modify
// and may keep for as long as it likes.
func (d *MemDisk) lendRun(first PageID, imgs [][]byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n := int(first) + len(imgs); n > len(d.pages) {
		return fmt.Errorf("%w: read run %d+%d of %d", ErrPageOutOfRange, first, len(imgs), len(d.pages))
	}
	for i := range imgs {
		if imgs[i] = d.pages[first+PageID(i)]; imgs[i] == nil {
			imgs[i] = d.zero
		}
	}
	return nil
}

// WritePage implements Disk: buf's bytes become a fresh image of page id,
// and the one it replaces stays as its readers saw it.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	img := make([]byte, d.pageSize)
	copy(img, buf)
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(d.pages))
	}
	d.pages[id] = img
	return nil
}

// Alloc implements Disk. The page reads as zeroes until its first write.
func (d *MemDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.zero == nil {
		d.zero = make([]byte, d.pageSize)
	}
	d.pages = append(d.pages, nil)
	return PageID(len(d.pages) - 1), nil
}

// Close implements Disk.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a Disk backed by a single flat file of concatenated pages.
//
// Reads take no lock: the page count is an atomic, and positioned reads are
// safe for concurrent use, so a store's readers reach the file side by side.
// On Linux a run of two or more pages is one preadv straight into the
// caller's buffers; a single page, a run that comes back short, and every run
// elsewhere are read one positioned read (os.File.ReadAt) per page. The Disk
// invariant — a page is written only before a reader can reach it — is what
// makes lock-free reads sound. Appends alone hold a mutex, which orders them.
type FileDisk struct {
	f        *os.File
	run      runReader
	pageSize int
	numPages atomic.Int64
	allocMu  sync.Mutex // serializes Append
}

// OpenFileDisk opens (creating if necessary) a file-backed disk. An existing
// file must contain a whole number of pages of the given size.
func OpenFileDisk(path string, pageSize int) (*FileDisk, error) {
	return openFileDisk(path, pageSize, os.O_RDWR|os.O_CREATE)
}

// OpenFileDiskReadOnly opens an existing file-backed disk for reading only:
// the file is never created, and Alloc and WritePage fail. A missing file
// fails with an error matching fs.ErrNotExist.
func OpenFileDiskReadOnly(path string, pageSize int) (*FileDisk, error) {
	return openFileDisk(path, pageSize, os.O_RDONLY)
}

func openFileDisk(path string, pageSize, flag int) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	run, err := newRunReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	d := &FileDisk{f: f, run: run, pageSize: pageSize}
	d.numPages.Store(st.Size() / int64(pageSize))
	return d, nil
}

// PageSize implements Disk.
func (d *FileDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *FileDisk) NumPages() int { return int(d.numPages.Load()) }

// ReadRun implements Disk without a lock: a run of two or more pages is one
// vector read where the platform has one (runReader), and whatever it leaves
// unread — all of a single page, the rest of a run that came back short — is
// read a positioned read per page. A page the file no longer holds in full —
// truncated under the open disk — fails the run with io.ErrUnexpectedEOF
// rather than coming back as its surviving bytes over whatever the buffer
// held before.
func (d *FileDisk) ReadRun(first PageID, bufs [][]byte) error {
	if n, have := int64(first)+int64(len(bufs)), d.numPages.Load(); n > have {
		return fmt.Errorf("%w: read run %d+%d of %d", ErrPageOutOfRange, first, len(bufs), have)
	}
	done := 0
	if len(bufs) > 1 {
		done = d.run.read(int64(first)*int64(d.pageSize), d.pageSize, bufs)
	}
	for i, buf := range bufs[done:] {
		id := first + PageID(done+i)
		n, err := d.f.ReadAt(buf[:d.pageSize], int64(id)*int64(d.pageSize))
		if n < d.pageSize {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("storage: read page %d: %w", id, err)
		}
	}
	return nil
}

// WritePage implements Disk. It takes no lock: under the Disk invariant only
// the page's own writer touches it.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	if have := d.numPages.Load(); int64(id) >= have {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, have)
	}
	if _, err := d.f.WriteAt(buf[:d.pageSize], int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Alloc implements Disk: it appends a zeroed page.
func (d *FileDisk) Alloc() (PageID, error) {
	return d.Append(make([]byte, d.pageSize))
}

// Append writes pages, a whole number of them, past the disk's last page
// with one write under the append mutex, and only then counts them, so no
// reader can reach a page before it exists. It returns the first page's id.
func (d *FileDisk) Append(pages []byte) (PageID, error) {
	if len(pages) == 0 || len(pages)%d.pageSize != 0 {
		return InvalidPage, fmt.Errorf("storage: append of %d bytes is not a whole number of %d-byte pages", len(pages), d.pageSize)
	}
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	id := d.numPages.Load()
	if _, err := d.f.WriteAt(pages, id*int64(d.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: append at page %d: %w", id, err)
	}
	d.numPages.Store(id + int64(len(pages)/d.pageSize))
	return PageID(id), nil
}

// Sync flushes the file's pages to stable storage: the step between writing
// a file and renaming it into place.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements Disk.
func (d *FileDisk) Close() error { return d.f.Close() }

// TailDisk is a Disk over a base it never writes: the base's pages are read
// from it as they are, and every page allocated past them lives in memory.
// A store opened from a file runs on one, so applying updates to it — which
// allocates pages for the tree nodes it persists — neither writes into nor
// grows the file. Reads of base pages go straight to the base (lock-free on a
// FileDisk); only reads of the in-memory tail take its lock.
type TailDisk struct {
	base Disk
	n    int // the base's pages, fixed at construction
	tail *MemDisk
}

// NewTailDisk returns a disk serving base's current pages and keeping every
// page allocated after them in memory. base must not grow behind its back.
func NewTailDisk(base Disk) *TailDisk {
	return &TailDisk{base: base, n: base.NumPages(), tail: NewMemDisk(base.PageSize())}
}

// PageSize implements Disk.
func (d *TailDisk) PageSize() int { return d.base.PageSize() }

// NumPages implements Disk.
func (d *TailDisk) NumPages() int { return d.n + d.tail.NumPages() }

// ReadRun implements Disk: the part of the run in the base from the base, the
// rest from the tail. A run wholly in the base never touches the tail's lock.
func (d *TailDisk) ReadRun(first PageID, bufs [][]byte) error {
	k := min(len(bufs), max(d.n-int(first), 0)) // the run's pages in the base
	if k == len(bufs) {
		return d.base.ReadRun(first, bufs)
	}
	if n, have := int(first)+len(bufs), d.NumPages(); n > have {
		return fmt.Errorf("%w: read run %d+%d of %d", ErrPageOutOfRange, first, len(bufs), have)
	}
	if k > 0 {
		if err := d.base.ReadRun(first, bufs[:k]); err != nil {
			return err
		}
	}
	return d.tail.ReadRun(first+PageID(k)-PageID(d.n), bufs[k:])
}

// WritePage implements Disk: only a tail page may be written.
func (d *TailDisk) WritePage(id PageID, buf []byte) error {
	if int(id) < d.n {
		return fmt.Errorf("storage: write page %d: the first %d pages are read-only", id, d.n)
	}
	return d.tail.WritePage(id-PageID(d.n), buf)
}

// Alloc implements Disk: the page is appended to the in-memory tail.
func (d *TailDisk) Alloc() (PageID, error) {
	id, err := d.tail.Alloc()
	if err != nil {
		return InvalidPage, err
	}
	return id + PageID(d.n), nil
}

// Close implements Disk by closing the base.
func (d *TailDisk) Close() error { return d.base.Close() }

var (
	_ Disk = (*MemDisk)(nil)
	_ Disk = (*FileDisk)(nil)
	_ Disk = (*TailDisk)(nil)
)
