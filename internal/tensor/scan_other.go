//go:build !amd64

package tensor

// scanWord builds a bitmap word; only amd64 has an assembly kernel.
func scanWord(rest []float32, bs int) (word, negZero uint64) { return scanWordGo(rest, bs) }
