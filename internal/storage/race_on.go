//go:build race

package storage

import (
	"runtime"
	"unsafe"
)

// raceWritten tells the race detector that bufs were written, as the
// standard library does for the bytes a read system call fills: a vector read
// fills them behind its back.
func raceWritten(bufs [][]byte) {
	for _, b := range bufs {
		runtime.RaceWriteRange(unsafe.Pointer(&b[0]), len(b))
	}
}
