package tensor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// COO is a sparse tensor in coordinate-list format: Keys holds the indices
// of non-zero elements in strictly increasing order and Values holds the
// corresponding values. Dim is the logical length of the dense equivalent.
type COO struct {
	Dim    int
	Keys   []int32
	Values []float32
}

// NewCOO returns an empty sparse tensor of logical dimension dim.
func NewCOO(dim int) *COO {
	return &COO{Dim: dim}
}

// Len reports the number of stored (non-zero) entries.
func (s *COO) Len() int { return len(s.Keys) }

// NNZBytes returns the wire size of the sparse representation assuming
// 4-byte keys and 4-byte values, as in the paper's cost model (c_i = c_v = 4).
func (s *COO) NNZBytes() int { return 8 * len(s.Keys) }

// Append adds a (key, value) entry. Keys must be appended in strictly
// increasing order; Append panics otherwise to catch construction bugs.
func (s *COO) Append(key int32, value float32) {
	if n := len(s.Keys); n > 0 && s.Keys[n-1] >= key {
		panic(fmt.Sprintf("tensor: COO keys must be strictly increasing, got %d after %d", key, s.Keys[n-1]))
	}
	s.Keys = append(s.Keys, key)
	s.Values = append(s.Values, value)
}

// ErrKeyOrder reports pairs that are not a COO run: keys and values of
// different lengths, a key not above the one before it, or a key not
// below Dim.
var ErrKeyOrder = errors.New("tensor: COO run is not strictly increasing in-range key-value pairs")

// Check reports whether s is a well-formed COO tensor: as many values as
// keys, keys strictly increasing, every key in [0, Dim). A malformed
// tensor is an error wrapping ErrKeyOrder.
func (s *COO) Check() error { return checkRun(-1, s.Keys, s.Values, s.Dim) }

// AppendRun appends a run of pairs in bulk: one pass checks the keys, then
// keys and values are each appended in one copy. Unlike Append it is meant
// for data that did not originate in this process, so a malformed run is
// an error wrapping ErrKeyOrder and leaves s as it was. Every key must lie
// in [0, Dim), so that ToDense can index with what was accepted.
func (s *COO) AppendRun(keys []int32, values []float32) error {
	prev := int64(-1)
	if n := len(s.Keys); n > 0 {
		prev = int64(s.Keys[n-1])
	}
	if err := checkRun(prev, keys, values, s.Dim); err != nil {
		return err
	}
	s.Keys = append(s.Keys, keys...)
	s.Values = append(s.Values, values...)
	return nil
}

// checkRun reports whether keys and values continue a run whose last key
// is prev (-1 for none) in strictly increasing order below dim.
func checkRun(prev int64, keys []int32, values []float32, dim int) error {
	if len(keys) != len(values) {
		return fmt.Errorf("%w: %d keys, %d values", ErrKeyOrder, len(keys), len(values))
	}
	for _, k := range keys {
		if int64(k) <= prev {
			if k < 0 {
				return fmt.Errorf("%w: key %d, dimension %d", ErrKeyOrder, k, dim)
			}
			return fmt.Errorf("%w: key %d after %d", ErrKeyOrder, k, prev)
		}
		prev = int64(k)
	}
	if prev >= int64(dim) {
		return fmt.Errorf("%w: key %d, dimension %d", ErrKeyOrder, prev, dim)
	}
	return nil
}

// Clone returns a deep copy of s. slices.Clone does not zero the arrays
// it is about to overwrite, as make would.
func (s *COO) Clone() *COO {
	return &COO{Dim: s.Dim, Keys: slices.Clone(s.Keys), Values: slices.Clone(s.Values)}
}

// ToDense materializes the dense representation. This is the "sparse to
// dense" conversion whose cost Figure 8 of the paper charges to AGsparse
// and SparCML.
func (s *COO) ToDense() *Dense {
	d := NewDense(s.Dim)
	for i, k := range s.Keys {
		d.Data[k] = s.Values[i]
	}
	return d
}

// FromDense extracts the non-zero elements of d into a new COO tensor.
// This is the "dense to sparse" conversion of Figure 8. One pass counts
// the non-zeros, so Keys and Values are each allocated once, exactly
// sized, and a second fills them. Both skip all-zero runs of 256 elements
// at the bitmap scan's speed, and neither branches on an element.
func FromDense(d *Dense) *COO {
	nnz := 0
	for lo := 0; lo < d.Len(); lo += 256 {
		for _, v := range nonZeroRun(d.Data[lo:min(lo+256, d.Len())]) {
			nnz += nonZero(v)
		}
	}
	keys, vals := make([]int32, nnz), make([]float32, nnz)
	for lo, j := 0, 0; j < nnz; lo += 256 {
		for i, v := range nonZeroRun(d.Data[lo:min(lo+256, d.Len())]) {
			if j == nnz {
				break
			}
			keys[j], vals[j] = int32(lo+i), v
			j += nonZero(v)
		}
	}
	return &COO{Dim: d.Len(), Keys: keys, Values: vals}
}

// nonZeroRun returns r, or nothing when all of r is zero.
func nonZeroRun(r []float32) []float32 {
	if zero, _ := isZeroBlock(r); zero {
		return nil
	}
	return r
}

// nonZero is 1 when v != 0 and 0 otherwise: -0 is zero, NaN is not.
func nonZero(v float32) int { return int((math.Float32bits(v)&0x7fffffff + 0x7fffffff) >> 31) }

// AddCOO merges other into s, summing values at equal keys (s's value
// first), with MergeRuns. Both inputs must be well-formed (Check); the
// result is too. The merged result may be denser than either input (the
// SparCML m > rho switch condition).
func (s *COO) AddCOO(other *COO) *COO {
	n := len(s.Keys) + len(other.Keys)
	out := &COO{Dim: s.Dim, Keys: make([]int32, n), Values: make([]float32, n)}
	o := MergeRuns(out.Keys, out.Values, s.Keys, s.Values, other.Keys, other.Values)
	out.Keys, out.Values = out.Keys[:o], out.Values[:o]
	return out
}

// Normalize sorts entries by key and coalesces duplicate keys by summing.
// Useful after bulk construction from unsorted input.
func (s *COO) Normalize() {
	if len(s.Keys) == 0 {
		return
	}
	type kv struct {
		k int32
		v float32
	}
	pairs := make([]kv, len(s.Keys))
	for i := range s.Keys {
		pairs[i] = kv{s.Keys[i], s.Values[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	s.Keys = s.Keys[:0]
	s.Values = s.Values[:0]
	for _, p := range pairs {
		if n := len(s.Keys); n > 0 && s.Keys[n-1] == p.k {
			s.Values[n-1] += p.v
		} else {
			s.Keys = append(s.Keys, p.k)
			s.Values = append(s.Values, p.v)
		}
	}
}
