package tensor

import (
	"errors"
	"fmt"
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

// ErrKeyOrder reports a run of pairs AppendRun refused: keys and values
// of different lengths, a key not above the one before it, or a key not
// below Dim.
var ErrKeyOrder = errors.New("tensor: COO run is not strictly increasing in-range key-value pairs")

// AppendRun appends a run of pairs in bulk: one pass checks the keys, then
// keys and values are each appended in one copy. Unlike Append it is meant
// for data that did not originate in this process, so a malformed run is
// an error wrapping ErrKeyOrder and leaves s as it was. Every key must lie
// in [0, Dim), so that ToDense can index with what was accepted.
func (s *COO) AppendRun(keys []int32, values []float32) error {
	if len(keys) != len(values) {
		return fmt.Errorf("%w: %d keys, %d values", ErrKeyOrder, len(keys), len(values))
	}
	prev := int64(-1)
	if n := len(s.Keys); n > 0 {
		prev = int64(s.Keys[n-1])
	}
	for _, k := range keys {
		if int64(k) <= prev {
			if k < 0 {
				return fmt.Errorf("%w: key %d, dimension %d", ErrKeyOrder, k, s.Dim)
			}
			return fmt.Errorf("%w: key %d after %d", ErrKeyOrder, k, prev)
		}
		prev = int64(k)
	}
	if prev >= int64(s.Dim) {
		return fmt.Errorf("%w: key %d, dimension %d", ErrKeyOrder, prev, s.Dim)
	}
	s.Keys = append(s.Keys, keys...)
	s.Values = append(s.Values, values...)
	return nil
}

// Clone returns a deep copy of s.
func (s *COO) Clone() *COO {
	c := &COO{
		Dim:    s.Dim,
		Keys:   make([]int32, len(s.Keys)),
		Values: make([]float32, len(s.Values)),
	}
	copy(c.Keys, s.Keys)
	copy(c.Values, s.Values)
	return c
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
// This is the "dense to sparse" conversion of Figure 8.
func FromDense(d *Dense) *COO {
	s := NewCOO(d.Len())
	for i, v := range d.Data {
		if v != 0 {
			s.Keys = append(s.Keys, int32(i))
			s.Values = append(s.Values, v)
		}
	}
	return s
}

// AddCOO merges other into s, summing values at equal keys. Both inputs
// must have sorted keys; the result remains sorted. The merged result may
// be denser than either input (the SparCML m > rho switch condition).
func (s *COO) AddCOO(other *COO) *COO {
	out := &COO{Dim: s.Dim}
	out.Keys = make([]int32, 0, len(s.Keys)+len(other.Keys))
	out.Values = make([]float32, 0, len(s.Values)+len(other.Values))
	i, j := 0, 0
	for i < len(s.Keys) && j < len(other.Keys) {
		switch {
		case s.Keys[i] < other.Keys[j]:
			out.Keys = append(out.Keys, s.Keys[i])
			out.Values = append(out.Values, s.Values[i])
			i++
		case s.Keys[i] > other.Keys[j]:
			out.Keys = append(out.Keys, other.Keys[j])
			out.Values = append(out.Values, other.Values[j])
			j++
		default:
			out.Keys = append(out.Keys, s.Keys[i])
			out.Values = append(out.Values, s.Values[i]+other.Values[j])
			i++
			j++
		}
	}
	out.Keys = append(out.Keys, s.Keys[i:]...)
	out.Values = append(out.Values, s.Values[i:]...)
	out.Keys = append(out.Keys, other.Keys[j:]...)
	out.Values = append(out.Values, other.Values[j:]...)
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
