package storage

import (
	"math/bits"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// runReader reads a run of pages with one preadv(2) straight into the
// caller's buffers. It holds the file's RawConn, taken once at open: Control
// increfs the descriptor for the length of the call, so a Close racing a read
// fails it rather than letting it read whatever file reuses the number.
type runReader struct{ rc syscall.RawConn }

func newRunReader(f *os.File) (runReader, error) {
	rc, err := f.SyscallConn()
	return runReader{rc}, err
}

// read reads bufs, each ps bytes, from offset off on, at most runChunkPages
// to a call, and returns how many of them it filled whole. It stops at the
// first call that fails or comes back short — a file cut under the disk, a
// signal — and leaves the rest to the caller's page-at-a-time read, which
// fails at the same page a page-at-a-time read always did.
func (r runReader) read(off int64, ps int, bufs [][]byte) int {
	v := preadvs.Get().(*preadv)
	defer preadvs.Put(v)
	done := 0
	for done < len(bufs) {
		run := bufs[done:min(len(bufs), done+len(v.iov))]
		for i, buf := range run {
			v.iov[i].Base = &buf[0]
			v.iov[i].SetLen(ps)
		}
		v.cnt, v.off = len(run), off+int64(done)*int64(ps)
		err := r.rc.Control(v.call)
		clear(v.iov[:len(run)]) // no pooled iovec keeps a frame alive
		if err != nil || v.errno != 0 {
			return done
		}
		whole := min(v.n/ps, len(run))
		raceWritten(run[:whole])
		done += whole
		if whole < len(run) {
			return done
		}
	}
	return done
}

// preadv is one vector read's arguments and results, pooled with call, its
// read method bound once: a closure per ReadRun would allocate on every
// miss.
type preadv struct {
	iov   [runChunkPages]syscall.Iovec
	cnt   int
	off   int64
	n     int
	errno syscall.Errno
	call  func(fd uintptr)
}

var preadvs = sync.Pool{New: func() any {
	v := new(preadv)
	v.call = v.read
	return v
}}

func (v *preadv) read(fd uintptr) {
	lo, hi := offs2lohi(v.off)
	n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(v.cnt), lo, hi, 0)
	v.n, v.errno = int(n), errno
}

// offs2lohi splits a file offset into the low and high words preadv(2) takes
// on every architecture: the whole offset and zero where a word holds 64
// bits, its two halves where it holds 32. (The high word shifts in two steps
// so neither shift is by the full width.)
func offs2lohi(off int64) (lo, hi uintptr) {
	return uintptr(off), uintptr(uint64(off) >> (bits.UintSize - 1) >> 1)
}
