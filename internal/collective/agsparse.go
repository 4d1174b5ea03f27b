package collective

import (
	"slices"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// AGsparse is PyTorch's AllGather-based sparse AllReduce (§2.1): every
// rank gathers all ranks' key and value lists, then performs a local
// reduction. It implicitly assumes little index overlap and needs memory
// proportional to N times the per-rank input.

// AGsparseAllReduce gathers every rank's sparse tensor and reduces
// locally, returning the global sparse sum (keys ascending). Parts are
// summed in rank order, so every rank returns the same bits: the
// worker-ordered sum.
//
// The gather is a ring: at step s a rank sends part (rank-s) right and
// receives part (rank-s-1) from the left. A part travels as Algorithm 3's
// key-value packets, each naming the key that follows it, with
// wire.InfKey ending the part (an empty part is one packet with no
// pairs), and each received packet is copied into that rank's arena and
// released at once.
func (c *Comm) AGsparseAllReduce(in *tensor.COO) (*tensor.COO, error) {
	part := func(r int) *tensor.COO {
		if r = (r%c.n + c.n) % c.n; r == c.rank {
			return in
		}
		return &c.parts[r]
	}
	op := c.nextOp()
	for s := 0; s < c.n-1; s++ {
		out, got := part(c.rank-s), part(c.rank-s-1)
		keys, vals := out.Keys, out.Values
		got.Dim, got.Keys, got.Values = in.Dim, got.Keys[:0], got.Values[:0]
		if err := c.exchange(true, true, op|uint64(s), func(b []byte) (int, bool) {
			k := min(len(keys), (len(b)-wire.EncodedSparsePacketSize(&wire.SparsePacket{}))/8)
			p := wire.SparsePacket{NextKey: wire.InfKey, Keys: keys[:k], Values: vals[:k]}
			if keys, vals = keys[k:], vals[k:]; len(keys) > 0 {
				p.NextKey = uint32(keys[0])
			}
			return len(wire.AppendSparsePacket(b[:0], &p)), len(keys) > 0
		}, func(payload []byte) (bool, error) {
			var err error
			if c.keys, c.vals, err = wire.DecodeSparsePacketView(&c.pkt, c.keys, c.vals, payload); err != nil {
				return false, err
			}
			return c.pkt.NextKey != wire.InfKey, got.AppendRun(c.pkt.Keys, c.pkt.Values)
		}); err != nil {
			return nil, err
		}
	}
	// Sum in rank order, into the arenas.
	sum := part(0)
	for r := 1; r < c.n; r++ {
		p, next := part(r), &c.sums[r%2]
		n := len(sum.Keys) + len(p.Keys)
		next.Keys, next.Values = slices.Grow(next.Keys[:0], n)[:n], slices.Grow(next.Values[:0], n)[:n]
		n = tensor.MergeRuns(next.Keys, next.Values, sum.Keys, sum.Values, p.Keys, p.Values)
		next.Keys, next.Values = next.Keys[:n], next.Values[:n]
		sum = next
	}
	return &tensor.COO{Dim: in.Dim, Keys: slices.Clone(sum.Keys), Values: slices.Clone(sum.Values)}, nil
}
