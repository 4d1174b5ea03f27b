package tensor

import (
	"fmt"
	"math"
)

// mergeSplitMin is the smallest merge (pairs in both runs) MergeRuns
// splits into two chains; below it the single chain of mergeRunsGo costs
// less than the split's binary search and the call into the kernel.
const mergeSplitMin = 16

// MergeRuns merges the strictly ascending runs (ak, av) and (bk, bv) into
// mk/mv and returns the number of pairs written. Keys order as unsigned
// 32-bit integers, as the wire carries them. A key in both runs is written
// once with av + bv (a's value first: held + arriving, where that order
// matters, as it does for the payload of NaN + NaN); every other value is
// copied bit for bit, NaN payloads and -0 included. av and bv must be as
// long as their keys, and mk and mv hold at least len(ak)+len(bk) pairs
// (MergeRuns panics otherwise); the pairs of mk[:len(ak)+len(bk)] after
// the merged ones may be overwritten. Runs that are not strictly ascending
// give an unspecified merge but no access outside the slices.
//
// This is the one sorted-run merge of the repository (the aggregator's
// Algorithm 3 and COO.AddCOO both call it). On amd64 a merge of
// mergeSplitMin pairs or more runs in merge_amd64.s as two independent
// chains, one from each end; everywhere else, and below that size, it is
// the branch-free loop of mergeSteps, with identical results.
func MergeRuns(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int {
	n := len(ak) + len(bk)
	if len(av) != len(ak) || len(bv) != len(bk) || len(mk) < n || len(mv) < n {
		panic(fmt.Sprintf("tensor: MergeRuns of %d+%d keys, %d+%d values into %d keys, %d values", len(ak), len(bk), len(av), len(bv), len(mk), len(mv)))
	}
	if n < mergeSplitMin {
		return mergeRunsGo(mk, mv, ak, av, bk, bv)
	}
	return mergeRunsKernel(mk[:n], mv[:n], ak, av, bk, bv)
}

// mergeRunsGo is MergeRuns in Go: mergeSteps until one run runs out, then
// the rest of the other in one copy. It is the portable kernel and the
// reference the assembly one is tested against.
func mergeRunsGo(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int {
	i, j, o := mergeSteps(mk, mv, ak, av, bk, bv)
	copy(mv[o:], av[i:])
	o += copy(mk[o:], ak[i:])
	copy(mv[o:], bv[j:])
	o += copy(mk[o:], bk[j:])
	return o
}

// mergeSteps merges the runs (ak, av) and (bk, bv) into mk/mv until one of
// them runs out, and returns how far each got: i pairs of a, j of b, o
// written. Every step writes the smaller key and advances each side whose
// key it wrote. Its value is selected by bits, so a value that is not
// folded is copied (NaN payloads and -0 included); on equal keys it is
// av + bv, a sum computed every step and kept only then. The selects and
// the advances compile to conditional moves and SETcc on amd64 (CSEL and
// CSET on arm64), not branches: the keys of two runs interleave at random,
// and a branch on them is mispredicted about half the time. o < len(mk)
// always holds (o <= i+j); it lets the compiler drop the stores' bounds
// checks.
func mergeSteps(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) (i, j, o int) {
	av, bv = av[:len(ak)], bv[:len(bk)]
	mv = mv[:len(mk)]
	for ; i < len(ak) && j < len(bk) && o < len(mk); o++ {
		a, b := uint32(ak[i]), uint32(bk[j])
		va, vb := math.Float32bits(av[i]), math.Float32bits(bv[j])
		sum := math.Float32bits(av[i] + bv[j])
		k, v := b, vb
		if a < b {
			k, v = a, va
		}
		if a == b {
			v = sum
		}
		mk[o], mv[o] = int32(k), math.Float32frombits(v)
		di, dj := 0, 0
		if a <= b {
			di = 1
		}
		if b <= a {
			dj = 1
		}
		i, j = i+di, j+dj
	}
	return i, j, o
}

// lowerBound returns the index of the first key in the ascending run k
// that is at least p, unsigned, or len(k).
func lowerBound(k []int32, p uint32) int {
	lo, hi := 0, len(k)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint32(k[mid]) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
