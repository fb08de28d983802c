package ioev

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// sliceFile is the oracle for File: a plain []byte grown on demand.
type sliceFile []byte

func (s *sliceFile) writeAt(p []byte, off int64) (int64, bool) {
	if off < 0 {
		return 0, false
	}
	old := int64(len(*s))
	if end := off + int64(len(p)); end > old {
		*s = append(*s, make([]byte, end-old)...)
	}
	copy((*s)[off:], p)
	return int64(len(*s)) - old, true
}

func (s sliceFile) readAt(off int64, n int) ([]byte, bool) {
	if off < 0 {
		return nil, false
	}
	if off >= int64(len(s)) {
		return nil, true
	}
	return s[off:min(off+int64(n), int64(len(s)))], true
}

// pattern returns n bytes that differ between seeds and positions, so a
// byte stored at the wrong place shows up in a comparison.
func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*131 + i*7 + i>>9)
	}
	return p
}

// fileOp is one step of a differential run: a write of len bytes at off,
// or a read of len bytes at off.
type fileOp struct {
	write bool
	off   int64
	len   int
}

// checkOps applies ops to a File and to the slice oracle and fails at the
// first divergence in written growth, length, read bytes or errors.
func checkOps(t *testing.T, ops []fileOp) {
	t.Helper()
	var f File
	var oracle sliceFile
	for i, op := range ops {
		if op.write {
			data := pattern(i, op.len)
			grew, err := f.WriteAt(data, op.off)
			want, ok := oracle.writeAt(data, op.off)
			if (err == nil) != ok {
				t.Fatalf("op %d: WriteAt(%d bytes, %d) error %v, oracle ok=%v", i, op.len, op.off, err, ok)
			}
			if grew != want {
				t.Fatalf("op %d: WriteAt(%d bytes, %d) grew %d, want %d", i, op.len, op.off, grew, want)
			}
			clear(data) // the file must keep no reference to the caller's bytes
		} else {
			got := make([]byte, op.len)
			n, err := f.ReadAt(got, op.off)
			want, ok := oracle.readAt(op.off, op.len)
			switch {
			case !ok:
				if err == nil {
					t.Fatalf("op %d: ReadAt(%d bytes, %d) accepted a negative offset", i, op.len, op.off)
				}
			case n != len(want) || !bytes.Equal(got[:n], want):
				t.Fatalf("op %d: ReadAt(%d bytes, %d) returned %d bytes, oracle %d, or different bytes", i, op.len, op.off, n, len(want))
			case (n < op.len) != (err == io.EOF):
				t.Fatalf("op %d: ReadAt(%d bytes, %d) = %d, %v: wrong EOF report", i, op.len, op.off, n, err)
			}
		}
		if f.Len() != int64(len(oracle)) {
			t.Fatalf("op %d: Len %d, oracle %d", i, f.Len(), len(oracle))
		}
	}
	all := make([]byte, f.Len())
	if _, err := f.ReadAt(all, 0); err != nil {
		t.Fatalf("reading whole file: %v", err)
	}
	if !bytes.Equal(all, oracle) {
		t.Fatal("final contents differ from the oracle")
	}
}

func TestFileMatchesSlice(t *testing.T) {
	const P = pageSize
	for _, tc := range []struct {
		name string
		ops  []fileOp
	}{
		{"empty file reads EOF", []fileOp{{false, 0, 1}, {false, 0, 0}, {false, 5, 3}}},
		{"negative offsets", []fileOp{{true, -1, 4}, {false, -1, 2}, {true, 0, 10}, {true, -3, 2}}},
		{"small writes fill the first page", []fileOp{
			{true, 0, 10}, {true, 10, 100}, {true, 110, 5000}, {true, 64, 200}, {false, 0, 6000},
		}},
		{"whole-page aligned appends", []fileOp{
			{true, 0, P}, {true, P, P}, {true, 2 * P, P + 17}, {false, P - 5, 10}, {false, 0, 3*P + 17},
		}},
		{"unaligned blocks straddle pages", []fileOp{
			{true, 64, 256 << 10}, {true, 64 + 256<<10, 256 << 10}, {true, 64 + 512<<10, 256 << 10},
			{true, 64 + 768<<10, 256 << 10}, {true, 64 + 1024<<10, 256 << 10}, {true, 0, 64},
			{false, P - 100, 200}, {false, 60, P + 8},
		}},
		{"hole reads as zeros", []fileOp{
			{true, 0, 3}, {true, 2*P + 5, 7}, {false, 0, 2*P + 12}, {false, P - 1, 2},
		}},
		{"empty write past the end extends", []fileOp{{true, P + 3, 0}, {false, 0, P + 3}}},
		{"overwrite across a page boundary", []fileOp{
			{true, 0, 2 * P}, {true, P - 8, 16}, {true, 2*P - 4, 12}, {false, P - 10, 20}, {false, 2*P - 6, 20},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkOps(t, tc.ops) })
	}
}

// decodeOps turns fuzz input into at most 32 operations of 6 bytes each:
// a kind byte, a page index, a signed delta and a length. Offsets land
// near page boundaries or near the current end of the file, and lengths
// are either short or about one page long, so page straddles, aligned
// appends and holes are all on the path. Files stay under 8 pages.
func decodeOps(raw []byte) []fileOp {
	var ops []fileOp
	var size int64
	for len(raw) >= 6 && len(ops) < 32 {
		kind, page := raw[0], int64(raw[1]%4)
		delta := int64(int16(binary.LittleEndian.Uint16(raw[2:])))
		n := int(binary.LittleEndian.Uint16(raw[4:]))
		raw = raw[6:]
		if kind&2 != 0 {
			n += pageSize - 1<<15
		}
		off := page*pageSize + delta
		if kind&4 != 0 {
			off = size + delta
		}
		if off+int64(n) > 8*pageSize {
			continue
		}
		op := fileOp{write: kind&1 != 0, off: off, len: n}
		if op.write && off >= 0 {
			size = max(size, off+int64(n))
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzFileVsSlice checks File against a plain []byte oracle over fuzzed
// sequences of writes and reads.
func FuzzFileVsSlice(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 10, 0, 0, 0, 0, 0, 20, 0})
	f.Add([]byte{
		3, 0, 0, 0, 0, 0x80, // write one page at 0
		7, 0, 0, 0, 0, 0x80, // aligned append of one page
		0, 1, 0xf0, 0xff, 64, 0, // read straddling the first boundary
	})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkOps(t, decodeOps(raw))
	})
}
