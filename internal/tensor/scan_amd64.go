package tensor

// scanWord builds the bitmap word of the blocks of bs floats in rest, a
// word's span of the tensor (64 blocks, fewer in the last word), and the
// word of its zero blocks that hold a -0.0. A full word of blocks whose
// length is a multiple of 32 goes to the AVX2 kernel where the CPU has it;
// everything else to scanWordGo.
func scanWord(rest []float32, bs int) (word, negZero uint64) {
	if useAVX2 && bs%32 == 0 && len(rest) == 64*bs {
		return scanWordAVX2(&rest[0], bs, 64)
	}
	return scanWordGo(rest, bs)
}

// scanWordAVX2 is scanWord's AVX2 kernel (scan_amd64.s): it
// returns the bitmap word of the nblocks blocks of bs floats at p, bit j
// set iff block j holds an element x != 0, and in negZero bit j set iff
// block j is zero and holds a -0.0. Each block is first tested on its
// first element, so a dense block costs one load; the rest is read 128
// bytes per step, four unaligned 32-byte loads ORed together, and left at
// the first step with a bit set outside the sign bits (the predicate of
// isZeroBlock, see absMask64). A zero block's steps are ORed together too,
// and its sign bits tested once at its end. bs must be a positive multiple
// of 32, so every step lies inside its block, and the CPU must have AVX2
// (useAVX2).
//
//go:noescape
func scanWordAVX2(p *float32, bs, nblocks int) (word, negZero uint64)

// useAVX2 is whether this CPU runs scanWordAVX2: it reports AVX2 and the
// OS saves the YMM registers across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of the extended control register XCR0,
// where the OS marks the register state it saves.
func xgetbv() uint32
