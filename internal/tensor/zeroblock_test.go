package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// isZeroOracle is the definition isZeroBlock must agree with: every
// element compares equal to zero.
func isZeroOracle(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

var zeroTestLengths = []int{0, 1, 2, 15, 16, 17, 255, 256, 257}

// TestZeroBlockSemantics pins which values count as zero and that a single
// non-zero is found wherever it sits — first, last, or in an element the
// word kernel peels — at every length class and at sub-slices that start on
// both 8-byte-aligned and merely 4-byte-aligned floats.
func TestZeroBlockSemantics(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	values := []struct {
		name string
		v    float32
		zero bool
	}{
		{"+0", 0, true},
		{"-0", negZero, true},
		{"NaN", float32(math.NaN()), false},
		{"NaN-payload", math.Float32frombits(0xffc00001), false},
		{"+Inf", float32(math.Inf(1)), false},
		{"-Inf", float32(math.Inf(-1)), false},
		{"min-denormal", math.SmallestNonzeroFloat32, false},
		{"-min-denormal", -math.SmallestNonzeroFloat32, false},
		{"one", 1, false},
	}
	backing := make([]float32, 257+4)
	for _, n := range zeroTestLengths {
		for off := 0; off < 4; off++ {
			v := backing[off : off+n : off+n]
			for _, val := range values {
				// Background of -0.0 so the sign mask is exercised in
				// every lane, not only where the probe value sits.
				for _, bg := range []float32{0, negZero} {
					for i := range backing {
						backing[i] = 1 // outside v: must never be read as part of it
					}
					for i := range v {
						v[i] = bg
					}
					if !isZeroBlock(v) {
						t.Fatalf("n=%d off=%d: all-%v block reported non-zero", n, off, bg)
					}
					for _, pos := range []int{0, 1, n / 2, n - 2, n - 1} {
						if pos < 0 || pos >= n {
							continue
						}
						v[pos] = val.v
						if got := isZeroBlock(v); got != val.zero {
							t.Fatalf("n=%d off=%d %s at %d: isZeroBlock=%v, want %v", n, off, val.name, pos, got, val.zero)
						}
						v[pos] = bg
					}
				}
			}
		}
	}
}

// TestComputeBitmapMatchesOracle holds both scan entry points to the
// oracle on block sizes either side of the word-kernel threshold and on
// multiples of 32 and not (the AVX2 word kernel's condition), with tails
// shorter than a block, a last word of fewer than 64 blocks at every block
// size, and tensors large enough to shard.
func TestComputeBitmapMatchesOracle(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{0, 1, 255, 4096 + 7, 2*64*288 + 29*288 + 31, 3*minShardBytes/4 + 13} {
		d := NewDense(n)
		for i := range d.Data {
			switch {
			case i%1031 == 0:
				d.Data[i] = 1
			case i%3 == 0:
				d.Data[i] = negZero
			}
		}
		for _, bs := range []int{1, 15, 16, 17, 32, 100, 256, 288} {
			par, ser := ComputeBitmap(d, bs), ComputeBitmapSerial(d, bs)
			for b := 0; b < d.NumBlocks(bs); b++ {
				want := !isZeroOracle(d.Block(b, bs))
				if par.Get(b) != want || ser.Get(b) != want {
					t.Fatalf("n=%d bs=%d block %d: parallel=%v serial=%v, want %v", n, bs, b, par.Get(b), ser.Get(b), want)
				}
			}
		}
	}
}

// FuzzZeroBlock feeds arbitrary float bit patterns at arbitrary float
// offsets and lengths to the word kernel and requires the oracle's answer.
func FuzzZeroBlock(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add(make([]byte, 4*64), uint8(1), uint16(63))
	f.Add(append(make([]byte, 4*40), 0, 0, 0, 0x80), uint8(0), uint16(41)) // trailing -0.0
	f.Add(append(make([]byte, 4*40), 1, 0, 0, 0), uint8(1), uint16(40))    // trailing denormal
	f.Add(append([]byte{0, 0, 0xc0, 0x7f}, make([]byte, 4*32)...), uint8(0), uint16(33))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, n uint16) {
		floats := make([]float32, len(raw)/4)
		for i := range floats {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		lo := min(int(off), len(floats))
		hi := min(lo+int(n), len(floats))
		v := floats[lo:hi]
		if got, want := isZeroBlock(v), isZeroOracle(v); got != want {
			t.Fatalf("isZeroBlock=%v, oracle=%v for %d floats at offset %d: % x", got, want, len(v), lo, raw)
		}
	})
}

// FuzzComputeBitmap builds a tensor of n floats at a float offset of 0-3
// from raw, read as records of a little-endian uint16 gap and float32 bits:
// each record's float lands gap elements after the previous one, the rest
// stay zero. Small inputs thus make long tensors of mostly zero blocks,
// whose full words reach the AVX2 kernel. The block size is a multiple of
// 32 up to 288; both scan entry points must give the oracle's bitmap.
func FuzzComputeBitmap(f *testing.F) {
	f.Add([]byte{}, uint16(64*32), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0x07, 0, 0, 0, 0x80}, uint16(4096), uint8(0), uint8(1))                              // -0.0
	f.Add([]byte{0x00, 0x20, 1, 0, 0, 0}, uint16(20000), uint8(7), uint8(3))                                // denormal
	f.Add([]byte{0x1f, 0, 1, 0, 0x80, 0x7f, 0x60, 0, 0, 0, 0xc0, 0x7f}, uint16(64*256), uint8(7), uint8(2)) // sNaN, qNaN
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, bsSel, off uint8) {
		bs := 32 * (1 + int(bsSel)%9)
		lo := int(off) & 3
		backing := make([]float32, lo+int(n))
		v := backing[lo:]
		for pos := 0; len(raw) >= 6; raw = raw[6:] {
			pos += int(binary.LittleEndian.Uint16(raw))
			if pos >= len(v) {
				break
			}
			v[pos] = math.Float32frombits(binary.LittleEndian.Uint32(raw[2:]))
		}
		d := FromSlice(v)
		par, ser := ComputeBitmap(d, bs), ComputeBitmapSerial(d, bs)
		for b := 0; b < d.NumBlocks(bs); b++ {
			want := !isZeroOracle(d.Block(b, bs))
			if par.Get(b) != want || ser.Get(b) != want {
				t.Fatalf("n=%d bs=%d offset %d block %d: parallel=%v serial=%v, want %v", n, bs, lo, b, par.Get(b), ser.Get(b), want)
			}
		}
	})
}
