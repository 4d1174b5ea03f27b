package tensor

// addF32 is AddF32's kernel in SSE2 (add_amd64.s): sixteen elements per
// iteration in four ADDPS, then four at a time, then one. SSE2 is part of
// the amd64 baseline, so it needs no feature check. ADDPS and ADDSS, which
// the compiler emits for addF32Go, round alike and keep dst's payload when
// both operands are NaN, so the two agree bit for bit. len(dst) must be at
// least len(src): the callers slice dst to len(src) first.
//
//go:noescape
func addF32(dst, src []float32)
