package tensor

import (
	"math"
	"unsafe"
)

// wordScanMin is the block length from which isZeroBlock switches from the
// per-element loop to the word-wise kernel; below it the peel and set-up
// cost more than they save.
const wordScanMin = 16

// absMask64 clears the sign bit of both float32 lanes of a 64-bit word.
// A float32 compares equal to zero iff its remaining 31 bits are all zero:
// -0.0 is only the sign bit, while NaN, ±Inf and denormals all keep a
// non-zero exponent or mantissa — exactly the x != 0 predicate.
const absMask64 = 0x7fffffff7fffffff

// isZeroBlock reports whether every element of v compares equal to zero
// (x == 0, so -0.0 counts as zero and NaN does not), and if so whether one
// of them is -0.0. This is the per-block body of the bitmap scan every
// collective pays on its whole input, so it runs at load bandwidth: the
// block is read as 64-bit words, eight ORed together per iteration, the
// sign bits masked once per 64 bytes and ORed aside.
//
// The first element is tested on its own first, so a dense block leaves
// after one load. The float32 slice is only guaranteed 4-byte alignment: a
// misaligned head element and an odd tail element are peeled and tested as
// floats, which keeps every 64-bit load aligned and inside v (checkptr- and
// race-detector-clean).
func isZeroBlock(v []float32) (zero, negZero bool) {
	if len(v) < wordScanMin {
		or := orShort(v)
		return or<<1 == 0, or == 1<<31
	}
	if v[0] != 0 {
		return false, false
	}
	acc := uint64(math.Float32bits(v[0]))
	if uintptr(unsafe.Pointer(&v[0]))&7 != 0 {
		v = v[1:] // v[0] was just tested
	}
	if len(v)&1 != 0 {
		if v[len(v)-1] != 0 {
			return false, false
		}
		acc |= uint64(math.Float32bits(v[len(v)-1]))
		v = v[:len(v)-1]
	}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&v[0])), len(v)/2)
	for len(w) >= 8 {
		x := w[:8]
		or := x[0] | x[1] | x[2] | x[3] | x[4] | x[5] | x[6] | x[7]
		if or&absMask64 != 0 {
			return false, false
		}
		acc |= or
		w = w[8:]
	}
	for _, x := range w {
		acc |= x
	}
	return acc&absMask64 == 0, acc != 0 && acc&absMask64 == 0
}

// orShort is the per-element form of isZeroBlock for blocks below
// wordScanMin: the OR of v's bits, which has no bit but the sign bit iff
// v is zero, and is exactly the sign bit iff v is zero and holds a -0.0.
// It inlines and does not branch, so a scan over short blocks makes no
// call and sets both words without a branch per block.
func orShort(v []float32) uint32 {
	var or uint32
	for _, x := range v {
		or |= math.Float32bits(x)
	}
	return or
}
