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
type MemDisk struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
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
		copy(buf, d.pages[first+PageID(i)])
	}
	return nil
}

// WritePage implements Disk.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(d.pages))
	}
	copy(d.pages[id], buf)
	return nil
}

// Alloc implements Disk.
func (d *MemDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, d.pageSize))
	return PageID(len(d.pages) - 1), nil
}

// Close implements Disk.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a Disk backed by a single flat file of concatenated pages.
type FileDisk struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	numPages int
}

// OpenFileDisk opens (creating if necessary) a file-backed disk. An existing
// file must contain a whole number of pages of the given size.
func OpenFileDisk(path string, pageSize int) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
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
	return &FileDisk{f: f, pageSize: pageSize, numPages: int(st.Size() / int64(pageSize))}, nil
}

// PageSize implements Disk.
func (d *FileDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// ReadRun implements Disk: one lock acquisition and one positioned read per
// page of the run. A page the file no longer holds in full — truncated under
// the open disk — fails the run with io.ErrUnexpectedEOF rather than coming
// back as its surviving bytes over whatever the buffer held before.
func (d *FileDisk) ReadRun(first PageID, bufs [][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := int(first) + len(bufs); n > d.numPages {
		return fmt.Errorf("%w: read run %d+%d of %d", ErrPageOutOfRange, first, len(bufs), d.numPages)
	}
	for i, buf := range bufs {
		id := first + PageID(i)
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

// WritePage implements Disk.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.numPages {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, d.numPages)
	}
	if _, err := d.f.WriteAt(buf[:d.pageSize], int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Alloc implements Disk.
func (d *FileDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.numPages)
	zero := make([]byte, d.pageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*int64(d.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: alloc page %d: %w", id, err)
	}
	d.numPages++
	return id, nil
}

// Sync flushes the file's pages to stable storage: the step between writing
// a file and renaming it into place.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements Disk.
func (d *FileDisk) Close() error { return d.f.Close() }

var (
	_ Disk = (*MemDisk)(nil)
	_ Disk = (*FileDisk)(nil)
)
