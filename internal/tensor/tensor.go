// Package tensor provides the dense and sparse tensor representations used
// throughout the OmniReduce implementation, along with block-level views,
// non-zero bitmap computation, format conversion, and sparsity statistics.
//
// A tensor here is a flat vector of float32 values (the paper's collectives
// operate on flattened gradients; multi-dimensional shape is irrelevant to
// communication). Dense tensors store every element contiguously; sparse
// tensors use the COO format (parallel key and value lists, keys strictly
// increasing).
package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense float32 tensor: a contiguous vector of values.
type Dense struct {
	Data []float32
}

// NewDense returns a zero-filled dense tensor with n elements.
func NewDense(n int) *Dense {
	return &Dense{Data: make([]float32, n)}
}

// FromSlice wraps an existing slice as a dense tensor without copying.
func FromSlice(v []float32) *Dense {
	return &Dense{Data: v}
}

// Len reports the number of elements.
func (t *Dense) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Dense) Clone() *Dense {
	c := make([]float32, len(t.Data))
	copy(c, t.Data)
	return &Dense{Data: c}
}

// Zero resets every element to zero.
func (t *Dense) Zero() {
	clear(t.Data)
}

// Add accumulates other into t element-wise. It panics if lengths differ.
func (t *Dense) Add(other *Dense) {
	if len(other.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d != %d", len(other.Data), len(t.Data)))
	}
	addF32(t.Data, other.Data)
}

// Scale multiplies every element by f.
func (t *Dense) Scale(f float32) {
	for i := range t.Data {
		t.Data[i] *= f
	}
}

// addF32Go is the portable form of the merge kernel: dst[i] += src[i]
// over len(src) elements, 4-way unrolled (four independent adds per
// iteration and one bounds check, which the compiler schedules much better
// than the rolled loop). Targets without an assembly addF32 run it, and
// the amd64 tests hold the SSE2 kernel to it bit for bit.
func addF32Go(dst, src []float32) {
	dst = dst[:len(src)]
	for len(src) >= 4 {
		d, s := dst[:4], src[:4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		dst = dst[4:]
		src = src[4:]
	}
	for i, v := range src {
		dst[i] += v
	}
}

// AddF32 accumulates src into dst element-wise (dst[i] += src[i] over
// len(src) elements; dst must be at least as long). It is the merge
// kernel every aggregator pays per element of every received block (the
// cost S2 Reducer targets): SSE2 on amd64 (add_amd64.s), addF32Go
// elsewhere, with identical results.
func AddF32(dst, src []float32) {
	addF32(dst[:len(src)], src)
}

// AddBlock accumulates src into t starting at element offset off. Panics if
// the block does not fit.
func (t *Dense) AddBlock(off int, src []float32) {
	addF32(t.Data[off:off+len(src)], src)
}

// SetBlock overwrites the elements starting at off with src.
func (t *Dense) SetBlock(off int, src []float32) {
	copy(t.Data[off:off+len(src)], src)
}

// Block returns the slice of values for block index b under block size bs.
// The final block may be shorter than bs if the length is not a multiple.
func (t *Dense) Block(b, bs int) []float32 {
	lo := b * bs
	hi := lo + bs
	if hi > len(t.Data) {
		hi = len(t.Data)
	}
	return t.Data[lo:hi]
}

// NumBlocks reports how many blocks of size bs cover the tensor.
func (t *Dense) NumBlocks(bs int) int {
	return (len(t.Data) + bs - 1) / bs
}

// Equal reports whether two dense tensors have identical length and values.
func (t *Dense) Equal(other *Dense) bool {
	if len(t.Data) != len(other.Data) {
		return false
	}
	for i, v := range t.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports element-wise equality within absolute tolerance tol.
func (t *Dense) ApproxEqual(other *Dense, tol float64) bool {
	if len(t.Data) != len(other.Data) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(float64(v)-float64(other.Data[i])) > tol {
			return false
		}
	}
	return true
}

// NonZeroCount returns the number of non-zero elements.
func (t *Dense) NonZeroCount() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0,1].
func (t *Dense) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return 1 - float64(t.NonZeroCount())/float64(len(t.Data))
}

// Norm2 returns the Euclidean (l2) norm of the tensor.
func (t *Dense) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// BlockNorm2 returns the l2 norm of block b under block size bs.
func (t *Dense) BlockNorm2(b, bs int) float64 {
	var s float64
	for _, v := range t.Block(b, bs) {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements (float64 accumulator).
func (t *Dense) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}
