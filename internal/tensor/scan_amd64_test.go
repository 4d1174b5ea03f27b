package tensor

import (
	"math"
	"testing"
)

// scanSpecials are the float32 bit patterns that decide the zero test:
// both zeros, the smallest denormals, the infinities, a quiet and a
// signalling NaN, and 1.
var scanSpecials = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x00000001, 0x80000001, // ±smallest denormal
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0x7f800001, // quiet, signalling NaN
	0x3f800000, // 1
}

// TestScanWordMatchesGo calls both word builders directly on the same
// 64-block words and holds each to the oracle's verdict on the probe:
// every special value at every element position of the word, on a +0 and
// a -0 background, at float offsets 0-3 from an aligned backing. Each
// round puts the probe in every other block, each block at its own
// position, so half the blocks are background only and half hold the
// probe; the two rounds per position swap the halves.
func TestScanWordMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU has no AVX2")
	}
	for _, bs := range []int{32, 64, 256, 288} {
		n := 64 * bs
		backing := make([]float32, n+4)
		for off := 0; off < 4; off++ {
			v := backing[off : off+n : off+n]
			for _, bits := range scanSpecials {
				val := math.Float32frombits(bits)
				for _, bg := range []uint32{0, 0x80000000} {
					for i := range backing {
						backing[i] = 1 // outside v: must never be read as part of it
					}
					for i := range v {
						v[i] = math.Float32frombits(bg)
					}
					for r := 0; r < 2*bs; r++ {
						var want uint64
						for j := 0; j < 64; j++ {
							if (j+r)&1 == 0 {
								v[j*bs+(r/2+7*j)%bs] = val
								if !isZeroOracle([]float32{val}) {
									want |= 1 << j
								}
							}
						}
						asm, gow := scanWordAVX2(&v[0], bs, 64), scanWordGo(v, bs)
						if asm != want || gow != want {
							t.Fatalf("bs=%d off=%d value %#08x on %#08x, round %d: asm %#016x, go %#016x, want %#016x",
								bs, off, bits, bg, r, asm, gow, want)
						}
						for _, nb := range []int{0, 1, 63} {
							if got := scanWordAVX2(&v[0], bs, nb); got != want&(1<<nb-1) {
								t.Fatalf("bs=%d nblocks=%d: asm %#016x, want %#016x", bs, nb, got, want&(1<<nb-1))
							}
						}
						for j := 0; j < 64; j++ {
							v[j*bs+(r/2+7*j)%bs] = math.Float32frombits(bg)
						}
					}
				}
			}
		}
	}
}
