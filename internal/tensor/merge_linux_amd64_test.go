package tensor

import (
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestMergeKernelStaysInRuns puts an unreadable page right before and
// right after every array the two-chain kernel touches: the runs' keys
// and values and the output. The forward chain reads at its index + 1 as
// it steps and the backward chain at its index - 1, so a kernel that
// takes one step too many on either reads a guard page, and the fault
// fails the test. Race and checkptr do not see inside assembly; this does.
// Each shape of mergeCases runs twice, every array flush against the page
// before it and then against the page after it, and must still match
// mergeRunsGo; so do runs of random keys, which are not ascending, and of
// which only the bounds are checked.
func TestMergeKernelStaysInRuns(t *testing.T) {
	page := os.Getpagesize()
	// Each array gets three pages, the outer two unreadable.
	var mems [6][]byte
	for i := range mems {
		mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Munmap(mem)
		if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		mems[i] = mem
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	// at returns n 4-byte elements of mems[i], starting right after the
	// first guard page or ending right before the last one.
	at := func(i, n int, end bool) unsafe.Pointer {
		off := page
		if end {
			off = 2*page - 4*n
		}
		return unsafe.Pointer(&mems[i][off])
	}
	keys := func(i int, src []int32, end bool) []int32 {
		s := unsafe.Slice((*int32)(at(i, len(src), end)), len(src))
		copy(s, src)
		return s
	}
	vals := func(i int, src []float32, end bool) []float32 {
		s := unsafe.Slice((*float32)(at(i, len(src), end)), len(src))
		copy(s, src)
		return s
	}
	rng := rand.New(rand.NewSource(44))
	sizes := []int{0, 1, 2, 3, 17, 64, 299, 300}
	for _, na := range sizes {
		for _, nb := range sizes {
			random := mergeCase{name: "not ascending", ak: make([]int32, na), bk: make([]int32, nb),
				av: mergeValues(rng, na), bv: mergeValues(rng, nb)}
			for i := range random.ak {
				random.ak[i] = int32(rng.Uint32())
			}
			for i := range random.bk {
				random.bk[i] = int32(rng.Uint32())
			}
			for _, c := range append(mergeCases(rng, na, nb), random) {
				n := na + len(c.bk)
				want := make([]int32, n)
				wantV := make([]float32, n)
				wo := mergeRunsGo(want, wantV, c.ak, c.av, c.bk, c.bv)
				for _, end := range []bool{false, true} {
					ak, av := keys(0, c.ak, end), vals(1, c.av, end)
					bk, bv := keys(2, c.bk, end), vals(3, c.bv, end)
					mk, mv := keys(4, make([]int32, n), end), vals(5, make([]float32, n), end)
					var o int
					func() {
						defer func() {
							if e := recover(); e != nil {
								t.Fatalf("%d+%d pairs, %s, flush at end %v: kernel stepped outside its runs: %v", na, nb, c.name, end, e)
							}
						}()
						o = mergeRunsKernel(mk, mv, ak, av, bk, bv)
					}()
					if c.name == random.name {
						if o > n {
							t.Fatalf("%d+%d pairs, %s: %d merged", na, nb, c.name, o)
						}
						continue
					}
					if o != wo {
						t.Fatalf("%d+%d pairs, %s: %d merged, Go %d", na, nb, c.name, o, wo)
					}
					for i := range o {
						if mk[i] != want[i] || math.Float32bits(mv[i]) != math.Float32bits(wantV[i]) {
							t.Fatalf("%d+%d pairs, %s: pair %d differs from Go's", na, nb, c.name, i)
						}
					}
				}
			}
		}
	}
}
