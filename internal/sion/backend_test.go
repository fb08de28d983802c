package sion

import (
	"bytes"
	"fmt"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
)

// bothStores returns a BeeGFS file system and an NVMe device backend, the
// two stores a container can live on.
func bothStores(sys *machine.System) map[string]Backend {
	return map[string]Backend{
		"beegfs": beegfs.New(fabric.New(sys, fabric.Config{}), beegfs.Config{}),
		"device": NewDeviceBackend(nvme.New(nvme.P3700())),
	}
}

// TestNegativeRangesReturnErrors: a negative offset or size is a caller
// error on either store, never a panic.
func TestNegativeRangesReturnErrors(t *testing.T) {
	sys := machine.New(1, 0)
	node := sys.Node(0)
	for name, b := range bothStores(sys) {
		b.SubmitCreate(ioev.At(0), "/f", node)
		if _, err := b.SubmitWrite(ioev.At(0), "/f", 0, []byte("0123456789"), node); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tc := range []struct {
			op   string
			call func() error
		}{
			{"write at offset -1", func() error {
				_, err := b.SubmitWrite(ioev.At(0), "/f", -1, []byte("x"), node)
				return err
			}},
			{"read at offset -1", func() error {
				_, _, err := b.SubmitRead(ioev.At(0), "/f", -1, 2, node)
				return err
			}},
			{"read of size -2", func() error {
				_, _, err := b.SubmitRead(ioev.At(0), "/f", 5, -2, node)
				return err
			}},
		} {
			t.Run(name+"/"+tc.op, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if tc.call() == nil {
					t.Fatal("accepted")
				}
			})
		}
		if size, _ := b.Size("/f"); size != 10 {
			t.Errorf("%s: size %d after rejected calls, want 10", name, size)
		}
	}
}

// recordingBackend records the (offset, length) of every SubmitWrite it
// passes on to the store underneath.
type recordingBackend struct {
	Backend
	writes [][2]int64
}

func (r *recordingBackend) SubmitWrite(dep ioev.Op, path string, offset int64, data []byte, node *machine.Node) (ioev.Op, error) {
	r.writes = append(r.writes, [2]int64{offset, int64(len(data))})
	return r.Backend.SubmitWrite(dep, path, offset, data, node)
}

// TestWriteTaskFlushSequence pins the backend calls of a WriteTask that
// tops up a buffered prefix, flushes two whole blocks from the caller's
// slice and buffers a tail, and of the Close that follows.
func TestWriteTaskFlushSequence(t *testing.T) {
	b, sys := testBackend()
	rec := &recordingBackend{Backend: b}
	a := ioev.Detach(sys.Node(0), 0)
	w, err := Create(a, rec, "/seq.sion", 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat([]byte("0123456789"), 33)[:325]
	steps := []struct {
		task  int
		data  []byte
		wants [][2]int64
	}{
		{0, stream[:30], nil},          // buffered
		{1, []byte("ten bytes!"), nil}, // buffered
		// 70 bytes complete the prefix block, two whole blocks follow and
		// 25 bytes stay buffered.
		{0, stream[30:], [][2]int64{{64, 100}, {164, 100}, {264, 100}}},
	}
	for i, s := range steps {
		rec.writes = nil
		if err := w.WriteTask(a, s.task, s.data); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rec.writes) != fmt.Sprint(s.wants) {
			t.Fatalf("step %d: backend writes %v, want %v", i, rec.writes, s.wants)
		}
	}
	rec.writes = nil
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	// Tails of task 0 and task 1, the block table (8+4*16 and 8+16 bytes)
	// and the header.
	want := [][2]int64{{364, 25}, {464, 10}, {564, 96}, {0, 64}}
	if fmt.Sprint(rec.writes) != fmt.Sprint(want) {
		t.Fatalf("close: backend writes %v, want %v", rec.writes, want)
	}
	r, err := OpenRead(a, b, "/seq.sion")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.ReadTask(a, 0); !bytes.Equal(got, stream) {
		t.Fatal("task 0 stream corrupted")
	}
}

// TestWriteTaskKeepsNoReference overwrites the caller's buffer after each
// WriteTask returns: the container must read back what was written, on
// either store, so no layer may hold on to the caller's bytes.
func TestWriteTaskKeepsNoReference(t *testing.T) {
	sys := machine.New(1, 0)
	a := ioev.Detach(sys.Node(0), 0)
	for name, b := range bothStores(sys) {
		w, err := Create(a, b, "/ref.sion", 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		buf := make([]byte, 150) // two whole blocks and a tail per call
		for i := 0; i < 3; i++ {
			for j := range buf {
				buf[j] = byte(i*50 + j)
			}
			want = append(want, buf...)
			if err := w.WriteTask(a, 0, buf); err != nil {
				t.Fatal(err)
			}
			for j := range buf {
				buf[j] = 0xEE
			}
		}
		if err := w.Close(a); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRead(a, b, "/ref.sion")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := r.ReadTask(a, 0); !bytes.Equal(got, want) {
			t.Errorf("%s: read-back changed with the caller's buffer", name)
		}
	}
}
