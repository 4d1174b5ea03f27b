package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// addSpecials are the float32 bit patterns where two kernels could part
// ways: signed zeros, infinities, subnormals, sums that overflow or cancel,
// and NaNs with distinct payloads, quiet and signalling, of either sign.
var addSpecials = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x7f800000, 0xff800000, // +Inf, -Inf
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
	0x00800000,             // smallest normal
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3f800000, 0xbf800000, // ±1
	0x7fc00000, 0xffc00001, 0x7fd23456, // quiet NaNs
	0x7f800001, 0xff812345, // signalling NaNs
}

// addBitsMatch runs AddF32 and addF32Go on copies of dstBack, whose
// elements lo to lo+n are the destination, and reports the first element
// whose bits differ, or -1. The backing's other elements must come out
// untouched.
//
// One case is held to a rule instead of to addF32Go: NaN + NaN. IEEE 754
// leaves the payload of that sum open, x86 returns the first operand's
// (quieted), and the compiler picks the operand order of addF32Go's adds
// statement by statement — today the first lane of its unrolled body and
// its tail loop load src first, the other three lanes dst — so the scalar
// loop has no single answer there. On amd64 the kernel's is dst's payload,
// quieted, in every lane.
func addBitsMatch(dstBack []float32, lo, n int, src []float32) (int, uint32, uint32) {
	got := append([]float32(nil), dstBack...)
	want := append([]float32(nil), dstBack...)
	AddF32(got[lo:lo+n], src)
	addF32Go(want[lo:lo+n], src)
	for i := range got {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if runtime.GOARCH == "amd64" && i >= lo && i < lo+n && isNaN32(dstBack[i]) && isNaN32(src[i-lo]) {
			w = math.Float32bits(dstBack[i]) | quietBit
		}
		if g != w {
			return i, g, w
		}
	}
	return -1, 0, 0
}

// quietBit is the float32 mantissa bit that marks a NaN quiet.
const quietBit = 1 << 22

func isNaN32(v float32) bool { return v != v }

// TestAddF32MatchesScalar holds AddF32 to the portable loop bit for bit
// (NaN + NaN to addBitsMatch's rule) at every length through the 16-wide
// body, the 4-wide step and the scalar tail (0-130), at every float offset
// of either operand (0-3), on inputs drawn from the specials and from
// random bits, and on every pair of specials in both operand orders.
func TestAddF32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float32 {
		if rng.Intn(2) == 0 {
			return math.Float32frombits(addSpecials[rng.Intn(len(addSpecials))])
		}
		return math.Float32frombits(rng.Uint32())
	}
	dstBack := make([]float32, 130+4)
	srcBack := make([]float32, 130+4)
	for n := 0; n <= 130; n++ {
		for do := 0; do < 4; do++ {
			for so := 0; so < 4; so++ {
				for i := range dstBack {
					dstBack[i], srcBack[i] = draw(), draw()
				}
				if i, g, w := addBitsMatch(dstBack, do, n, srcBack[so:so+n]); i >= 0 {
					t.Fatalf("n=%d dst+%d src+%d: element %d is %#08x, scalar %#08x", n, do, so, i, g, w)
				}
			}
		}
	}
	k := len(addSpecials)
	dst := make([]float32, k*k)
	src := make([]float32, k*k)
	for a := range addSpecials {
		for b := range addSpecials {
			dst[a*k+b] = math.Float32frombits(addSpecials[a])
			src[a*k+b] = math.Float32frombits(addSpecials[b])
		}
	}
	if i, g, w := addBitsMatch(dst, 0, len(dst), src); i >= 0 {
		t.Fatalf("%#08x + %#08x = %#08x, scalar %#08x", addSpecials[i/k], addSpecials[i%k], g, w)
	}
}

// FuzzAddF32 holds AddF32 to addF32Go on arbitrary bit patterns: raw is
// split into a destination and a summand of n floats each, at float
// offsets off%4 and off/4%4 into their backings.
func FuzzAddF32(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, 8*40), uint8(5), uint8(33))
	f.Add(append([]byte{0, 0, 0xc0, 0x7f, 1, 0, 0xc0, 0xff}, make([]byte, 8*20)...), uint8(0), uint8(17))
	f.Fuzz(func(t *testing.T, raw []byte, off, n uint8) {
		floats := make([]float32, len(raw)/4)
		for i := range floats {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		half := len(floats) / 2
		dstBack, srcBack := floats[:half], floats[half:]
		do, so := min(int(off%4), len(dstBack)), min(int(off/4%4), len(srcBack))
		m := min(int(n), len(dstBack)-do, len(srcBack)-so)
		if i, g, w := addBitsMatch(dstBack, do, m, srcBack[so:so+m]); i >= 0 {
			t.Fatalf("n=%d dst+%d src+%d: element %d is %#08x, scalar %#08x", m, do, so, i, g, w)
		}
	})
}
