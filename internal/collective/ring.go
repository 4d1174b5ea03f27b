package collective

import (
	"fmt"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Ring AllReduce (Patarasuk & Yuan): the bandwidth-optimal dense algorithm
// NCCL and Gloo default to, used as the paper's main baseline. The vector
// is split into N segments; a reduce-scatter phase of N-1 steps leaves
// each rank holding the full sum of one segment, and an allgather phase of
// N-1 steps circulates the reduced segments. Each rank sends and receives
// 2(N-1)/N of the data.

// segment returns the [lo, hi) element range of segment s for n elements
// over p ranks.
func segment(s, p, n int) (int, int) {
	s = ((s % p) + p) % p
	return s * n / p, (s + 1) * n / p
}

// RingAllReduce sums data element-wise across all ranks in place.
func (c *Comm) RingAllReduce(data []float32) error {
	if c.n == 1 || len(data) == 0 {
		return nil
	}
	op := c.nextOp()
	seg := func(s int) []float32 {
		lo, hi := segment(s, c.n, len(data))
		return data[lo:hi]
	}
	// At step t, send segment (rank-t) right and fold segment (rank-t-1)
	// arriving from the left into place, straight from each frame: by
	// dst += src for the N-1 steps of the reduce-scatter, by a copy for
	// the N-1 of the allgather.
	for t := 0; t < 2*(c.n-1); t++ {
		out, in := seg(c.rank-t), seg(c.rank-t-1)
		fold := tensor.AddF32
		if t >= c.n-1 {
			fold = func(dst, src []float32) { copy(dst, src) }
		}
		if err := c.exchange(len(out) > 0, len(in) > 0, op|uint64(t), func(p []byte) (int, bool) {
			k := min(len(out), len(p)/4)
			wire.PutF32Slice(p, out[:k])
			out = out[k:]
			return 4 * k, len(out) > 0
		}, func(payload []byte) (bool, error) {
			if len(payload) == 0 || len(payload)%4 != 0 || len(payload)/4 > len(in) {
				return false, fmt.Errorf("collective: ring frame of %d bytes with %d elements left in the segment", len(payload), len(in))
			}
			var v []float32
			v, c.f32 = wire.ViewF32Slice(payload, c.f32)
			fold(in, v)
			in = in[len(v):]
			return len(in) > 0, nil
		}); err != nil {
			return err
		}
	}
	return nil
}
