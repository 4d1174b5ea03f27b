package collective

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
	right := (c.rank + 1) % c.n
	left := (c.rank - 1 + c.n) % c.n

	// Reduce-scatter: at step s, send segment (rank-s) right and reduce
	// segment (rank-s-1) arriving from the left.
	for s := 0; s < c.n-1; s++ {
		sendLo, sendHi := segment(c.rank-s, c.n, len(data))
		if err := c.send(right, op|uint64(s), f32Bytes(data[sendLo:sendHi])); err != nil {
			return err
		}
		buf, err := c.recv(left, op|uint64(s))
		if err != nil {
			return err
		}
		recvLo, recvHi := segment(c.rank-s-1, c.n, len(data))
		in := bytesF32(buf)
		if len(in) != recvHi-recvLo {
			return errSize("ring reduce-scatter", len(in), recvHi-recvLo)
		}
		for i, v := range in {
			data[recvLo+i] += v
		}
	}
	// AllGather: circulate the fully reduced segments.
	for s := 0; s < c.n-1; s++ {
		sendLo, sendHi := segment(c.rank+1-s, c.n, len(data))
		if err := c.send(right, op|uint64(64+s), f32Bytes(data[sendLo:sendHi])); err != nil {
			return err
		}
		buf, err := c.recv(left, op|uint64(64+s))
		if err != nil {
			return err
		}
		recvLo, recvHi := segment(c.rank-s, c.n, len(data))
		in := bytesF32(buf)
		if len(in) != recvHi-recvLo {
			return errSize("ring allgather", len(in), recvHi-recvLo)
		}
		copy(data[recvLo:recvHi], in)
	}
	return nil
}

// RingAllGatherVar gathers variable-length byte payloads from every rank;
// result[r] holds rank r's payload on every rank. This is the AllGather
// AGsparse builds on: ranks exchange COO buffers of different sizes.
func (c *Comm) RingAllGatherVar(mine []byte) ([][]byte, error) {
	out := make([][]byte, c.n)
	out[c.rank] = mine
	if c.n == 1 {
		return out, nil
	}
	op := c.nextOp()
	right := (c.rank + 1) % c.n
	left := (c.rank - 1 + c.n) % c.n
	for s := 0; s < c.n-1; s++ {
		src := ((c.rank-s)%c.n + c.n) % c.n
		if err := c.send(right, op|uint64(s), out[src]); err != nil {
			return nil, err
		}
		buf, err := c.recv(left, op|uint64(s))
		if err != nil {
			return nil, err
		}
		dst := ((c.rank-s-1)%c.n + c.n) % c.n
		out[dst] = buf
	}
	return out, nil
}

type sizeError struct {
	where     string
	got, want int
}

func (e sizeError) Error() string {
	return "collective: " + e.where + " size mismatch"
}

func errSize(where string, got, want int) error {
	return sizeError{where, got, want}
}
