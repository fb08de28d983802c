package ioev

import (
	"fmt"
	"io"
)

// pageSize is the page granularity of File.
const pageSize = 1 << 20

// File is the byte content of a simulated file, kept in fixed-size pages so
// that growing a file never recopies what it already holds. Every page is
// allocated whole; a page's length is the part of it the file covers, so
// every page but the last is full. The zero value is an empty file.
//
// File carries no mutex: the storage models that own files are serialised
// by the cooperative kernel.
type File struct {
	pages [][]byte
	size  int64
}

// Len returns the file's size in bytes.
func (f *File) Len() int64 { return f.size }

// WriteAt stores p at offset off, zero-filling any hole between the old end
// of the file and off, and returns how many bytes the file grew. The file
// keeps no reference to p.
func (f *File) WriteAt(p []byte, off int64) (grew int64, err error) {
	if off < 0 {
		return 0, fmt.Errorf("ioev: write at negative offset %d", off)
	}
	old := f.size
	if off > f.size {
		f.extend(off-f.size, nil)
	}
	n := 0
	for n < len(p) && off < f.size {
		c := copy(f.pages[off/pageSize][off%pageSize:], p[n:])
		n += c
		off += int64(c)
	}
	f.extend(int64(len(p)-n), p[n:])
	return f.size - old, nil
}

// ReadAt copies len(p) bytes at offset off into p. Like io.ReaderAt it
// returns io.EOF when the file ends before p is full.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ioev: read at negative offset %d", off)
	}
	n := 0
	for n < len(p) && off < f.size {
		c := copy(p[n:], f.pages[off/pageSize][off%pageSize:])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// extend appends count bytes to the file, taken from src, or zeros when src
// is nil.
func (f *File) extend(count int64, src []byte) {
	for end := f.size + count; f.size < end; {
		k, in := int(f.size/pageSize), int(f.size%pageSize)
		n := int(min(end-f.size, int64(pageSize-in)))
		if k == len(f.pages) && src != nil && n == pageSize {
			// A fresh page that the caller's bytes fill: copy them in
			// directly rather than zeroing the page first.
			f.pages = append(f.pages, append([]byte(nil), src[:n]...))
		} else {
			if k == len(f.pages) {
				f.pages = append(f.pages, make([]byte, 0, pageSize))
			}
			// Bytes past a page's length were never written, so they are
			// zero already and a hole (nil src) needs no clearing.
			pg := f.pages[k][:in+n]
			copy(pg[in:], src)
			f.pages[k] = pg
		}
		if src != nil {
			src = src[n:]
		}
		f.size += int64(n)
	}
}
