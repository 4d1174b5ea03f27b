package tensor

// mergeRunsKernel is MergeRuns as two independent dependency chains
// (merge_amd64.s). One step of a merge loads two keys, compares them and
// advances a pointer that the next step's loads need, so a single chain
// runs at the latency of that load, compare and advance. The runs are
// split at a's middle key p: a[:ia] and b[:jb] hold every key below p,
// a[ia:] and b[jb:] every key from p on, so no pair of equal keys
// straddles the split. The kernel merges the front halves forward from
// the start of mk and the back halves backward from its end, a step of
// each per iteration, and returns where each chain stopped; the rest of
// each chain is one run's pairs, copied here, and one copy closes the gap
// between the two chains' output. len(mk) and len(mv) must be
// len(ak)+len(bk).
func mergeRunsKernel(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int {
	if len(ak) == 0 || len(bk) == 0 {
		return mergeRunsGo(mk, mv, ak, av, bk, bv)
	}
	ia := len(ak) / 2
	jb := lowerBound(bk, uint32(ak[ia]))
	i, j, o, ea, eb, eo := mergeTwoChains(mk, mv, ak, av, bk, bv, ia, jb)
	copy(mv[o:], av[i:ia])
	o += copy(mk[o:], ak[i:ia])
	copy(mv[o:], bv[j:jb])
	o += copy(mk[o:], bk[j:jb])
	eo -= ea - ia
	copy(mk[eo:], ak[ia:ea])
	copy(mv[eo:], av[ia:ea])
	eo -= eb - jb
	copy(mk[eo:], bk[jb:eb])
	copy(mv[eo:], bv[jb:eb])
	copy(mv[o:], mv[eo:])
	return o + copy(mk[o:], mk[eo:])
}

// mergeTwoChains runs mergeRunsKernel's two chains: forward over
// a[:ia] and b[:jb] into mk from index 0, backward over a[ia:] and b[jb:]
// into mk from its last index, each step as mergeSteps' (a's value, b's,
// or a + b on equal keys, ADDSS with a's value first). Each chain stops
// when one of its runs is used up, and the kernel returns how far: the
// forward chain consumed a[:i] and b[:j] into mk[:o], the backward chain
// a[ea:] and b[eb:] into mk[eo:]. The chains step in blocks no longer
// than the shortest run left, so no key outside the runs is read
// whatever the keys' order. len(av) must be len(ak), len(bv) len(bk),
// len(mk) and len(mv) len(ak)+len(bk), 0 <= ia <= len(ak) and
// 0 <= jb <= len(bk).
//
//go:noescape
func mergeTwoChains(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32, ia, jb int) (i, j, o, ea, eb, eo int)
