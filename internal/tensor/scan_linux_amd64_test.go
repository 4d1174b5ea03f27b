package tensor

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestScanWordAVX2StopsEarly pins the kernel's two early exits by putting
// an unreadable page right after what it may read: a block whose first
// element is non-zero must be decided by that element alone, and a block
// with a non-zero in its first 128-byte step must not load the next step.
// A kernel that reads further faults, and the fault fails the test.
func TestScanWordAVX2StopsEarly(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU has no AVX2")
	}
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	at := func(byteOff int) *float32 { return (*float32)(unsafe.Pointer(&mem[byteOff])) }
	for _, c := range []struct {
		name   string
		p      *float32 // the block's first element
		nz     int      // bytes from p to the non-zero element
		bs     int
		unread int // bytes from p to the guard page
	}{
		{"dense block reads one element", at(page - 4), 0, 32, 4},
		{"dense block at bs=288", at(page - 4), 0, 288, 4},
		{"non-zero in the first step", at(page - 128), 4, 64, 128},
		{"non-zero ends the first step", at(page - 128), 124, 256, 128},
		{"non-zero in the second step", at(page - 256), 252, 288, 256},
	} {
		clear(mem[:page])
		*(*float32)(unsafe.Add(unsafe.Pointer(c.p), c.nz)) = -1
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Fatalf("%s: kernel read past byte %d of the block: %v", c.name, c.unread, e)
				}
			}()
			if got, _ := scanWordAVX2(c.p, c.bs, 1); got != 1 {
				t.Fatalf("%s: word %#x, want 1", c.name, got)
			}
		}()
	}
}
