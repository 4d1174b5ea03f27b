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
	"sync/atomic"

	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Comm runs collectives over one transport endpoint as OmniReduce's
// driver moves packets: every message is one pooled frame, an 8-byte tag
// (op<<16 | step) and then at most transport.MaxDatagram-8 payload bytes,
// handed over with transport.SendAll and released by the receiver once
// read. A longer payload goes as consecutive frames under one tag. Frames
// come only from the left ring neighbour, in order, as the fabric is
// per-sender ordered; any other frame is an error. Collectives on a Comm
// must be issued in the same order by all participants, one at a time.
type Comm struct {
	conn  transport.Conn
	n     int
	rank  int
	opSeq uint32
	sent  atomic.Int64
	batch []transport.Outgoing

	// Arenas reused from op to op: decode scratch, every other rank's
	// AGsparse part and the two running sums of its reduction.
	f32   []float32
	pkt   wire.SparsePacket
	keys  []int32
	vals  []float32
	parts []tensor.COO
	sums  [2]tensor.COO
}

// NewComm creates a communicator for a group of n workers with ranks equal
// to their transport node IDs 0..n-1.
func NewComm(conn transport.Conn, n int) (*Comm, error) {
	rank := conn.LocalID()
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("collective: rank %d out of range [0,%d)", rank, n)
	}
	return &Comm{conn: conn, n: n, rank: rank, parts: make([]tensor.COO, n)}, nil
}

// Rank returns this participant's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.n }

// BytesSent returns the bytes of every frame this Comm has sent, tags
// included.
func (c *Comm) BytesSent() int64 { return c.sent.Load() }

// Close closes the underlying transport endpoint.
func (c *Comm) Close() error { return c.conn.Close() }

// window is how many frames exchange sends before it turns to receive.
// Frame by frame, a 4-worker ring op took 1.6x as long.
const window = 64

// exchange runs one ring step: frames filled by next (n payload bytes
// into p, and whether more follow) go right, a window at a time, and the
// payload of each frame from the left goes to got until it reports the
// last. A rank does not wait for its right neighbour to read, so it can
// run up to n-1 steps ahead: the fabric's queues must hold that many
// steps' frames (the 4096 of every channel fabric built here are 256 MiB).
func (c *Comm) exchange(sending, receiving bool, tag uint64, next func(p []byte) (n int, more bool), got func(payload []byte) (more bool, err error)) error {
	left := (c.rank - 1 + c.n) % c.n
	for sending || receiving {
		batch := c.batch[:0]
		for sending && len(batch) < window {
			f := transport.GetBuf(transport.MaxDatagram)
			binary.LittleEndian.PutUint64(f, tag)
			n := 0
			n, sending = next(f[8:])
			c.sent.Add(int64(8 + n))
			batch = append(batch, transport.Outgoing{To: (c.rank + 1) % c.n, Data: f[:8+n]})
		}
		c.batch = batch
		if err := transport.SendAll(c.conn, batch); err != nil {
			return err
		}
		for i := 0; receiving && i < window; i++ {
			m, err := c.conn.Recv()
			if err != nil {
				return err
			}
			if m.From != left || len(m.Data) < 8 || binary.LittleEndian.Uint64(m.Data) != tag {
				err = fmt.Errorf("collective: unexpected %d-byte frame from %d, want tag %#x from %d", len(m.Data), m.From, tag, left)
			} else {
				receiving, err = got(m.Data[8:])
			}
			transport.PutBuf(m.Data)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// nextOp allocates a fresh tag namespace for one collective operation.
// Tags are (op<<16 | step).
func (c *Comm) nextOp() uint64 {
	c.opSeq++
	return uint64(c.opSeq) << 16
}
