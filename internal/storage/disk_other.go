//go:build !linux

package storage

import "os"

// runReader is the vector read of a page run where there is none: every run
// is read a page at a time.
type runReader struct{}

func newRunReader(*os.File) (runReader, error) { return runReader{}, nil }

// read fills no buffer: the caller reads them all a page at a time.
func (runReader) read(int64, int, [][]byte) int { return 0 }
