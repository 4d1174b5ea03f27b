// Package collective implements the live comparison collectives that the
// benchmarks time against OmniReduce (§2.1, §6.1): ring AllReduce (the
// NCCL/Gloo default) and AGsparse sparse AllReduce (PyTorch's
// AllGather-based method). Both run over the same transport abstraction
// as OmniReduce, so correctness tests and wall-clock benchmarks compare
// like with like. The paper's other baselines (parameter server, SparCML's
// split-allgather, Parallax) appear in the figures through the simulator
// (internal/netsim/simproto), not here.
package collective

import (
	"encoding/binary"
	"fmt"
	"math"

	"omnireduce/internal/transport"
)

// Comm wraps a transport endpoint with tagged point-to-point matching:
// messages carry a 8-byte (tag, op) header and Recv calls can wait for a
// specific (peer, tag) pair while buffering others. Collectives on a Comm
// must be issued in the same order by all participants.
type Comm struct {
	conn    transport.Conn
	n       int
	rank    int
	opSeq   uint32
	pending map[uint64][][]byte
}

// NewComm creates a communicator for a group of n workers with ranks equal
// to their transport node IDs 0..n-1.
func NewComm(conn transport.Conn, n int) (*Comm, error) {
	rank := conn.LocalID()
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("collective: rank %d out of range [0,%d)", rank, n)
	}
	return &Comm{conn: conn, n: n, rank: rank, pending: make(map[uint64][][]byte)}, nil
}

// Rank returns this participant's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.n }

// Close closes the underlying transport endpoint.
func (c *Comm) Close() error { return c.conn.Close() }

func key(from int, tag uint64) uint64 { return uint64(from)<<48 | tag }

// send transmits payload to peer under the given tag (op-scoped).
func (c *Comm) send(to int, tag uint64, payload []byte) error {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(buf, tag)
	copy(buf[8:], payload)
	return c.conn.Send(to, buf)
}

// recv blocks until a message from `from` with the given tag arrives,
// buffering any other messages that arrive first.
func (c *Comm) recv(from int, tag uint64) ([]byte, error) {
	k := key(from, tag)
	if q := c.pending[k]; len(q) > 0 {
		m := q[0]
		c.pending[k] = q[1:]
		return m, nil
	}
	for {
		m, err := c.conn.Recv()
		if err != nil {
			return nil, err
		}
		if len(m.Data) < 8 {
			return nil, fmt.Errorf("collective: short message from %d", m.From)
		}
		mtag := binary.LittleEndian.Uint64(m.Data)
		payload := m.Data[8:]
		if m.From == from && mtag == tag {
			return payload, nil
		}
		mk := key(m.From, mtag)
		c.pending[mk] = append(c.pending[mk], payload)
	}
}

// nextOp allocates a fresh tag namespace for one collective operation.
// Tags are (op<<16 | step).
func (c *Comm) nextOp() uint64 {
	c.opSeq++
	return uint64(c.opSeq) << 16
}

// Float32 codec helpers shared by the collectives in this package.

func f32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
