package protocol

import (
	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Msg is one decoded inbound message for a machine: exactly one of Dense
// or Sparse is non-nil. Drivers decode bytes (or pass simulator payloads
// through) before handing messages to a machine; machines never see
// encoded buffers.
//
// Ownership: an inbound Msg is only guaranteed valid for the duration of
// the HandlePacket call that consumes it. Machines copy whatever they
// need (block payloads into accumulators or tensor views, metadata into
// slot state) and must not retain references to the packet, its Nexts,
// any Block.Data, or a sparse packet's Keys and Values past the call.
// The live drivers depend on this to the letter: they decode a packet as
// a view of its message buffer (wire.DecodePacketView — Block.Data, Keys
// and Values point into the bytes that arrived) and hand the buffer back
// to the transport pool the moment HandlePacket returns, after which its
// memory belongs to some other message. A retained slice would read, or
// sum, another packet's data. The simulator relies on the complementary
// guarantee: machines never mutate a received packet, so it may deliver
// one decoded packet by reference to many machines.
type Msg struct {
	Dense  *wire.Packet
	Sparse *wire.SparsePacket
}

// Type is the message's wire type; 0 for an empty Msg.
func (m Msg) Type() uint8 {
	switch {
	case m.Dense != nil:
		return m.Dense.Type
	case m.Sparse != nil:
		return m.Sparse.Type
	}
	return 0
}

// Emit is one outbound message requested by a machine: a decoded packet,
// its destination node ID, and the exact number of bytes the wire encoding
// occupies (per internal/wire's encoders). Real drivers call Encode and
// transmit; the simulator deep-copies the packet and charges Size bytes to
// the virtual fabric.
//
// Machines never mutate a packet while it is emitted and never mutate
// received packets, so a single packet value may safely be encoded once
// and sent N times within one consuming burst (aggregator result
// multicasts are pointer-equal across their fan-out).
//
// Ownership: emitted packets belong to the machine, and they are reusable
// shells — the machine recycles a shell two rounds after emitting it
// (double buffering), and emitted payloads may alias the machine's
// TensorView or internal arenas. A driver must therefore CONSUME every
// emit — encode it onto the wire, or deep-copy it — before the next call
// into the emitting machine, and must never mutate or recycle the packet
// itself. The live drivers satisfy this by construction (txBatch encodes
// the whole burst before returning); the simulator copies packets into
// its own pooled shells at route time, because simulated delivery happens
// at a future virtual time.
type Emit struct {
	Dst    int
	Packet *wire.Packet
	Sparse *wire.SparsePacket
	Size   int
	// Retransmit marks timer-driven resends (loss-recovery traffic),
	// distinguishing repairs from first transmissions in driver accounting.
	Retransmit bool
	// Commit marks a result a successor can resume from: the fan-out of a
	// round the aggregator has just concluded, in versioned mode (Algorithm
	// 2) every round, in reliable mode (Algorithm 1) only a slot's final
	// result, because a reliable-mode successor takes over between
	// collectives only (see AggregatorMachine.AdoptResult). Replays and
	// sparse flushes never carry it. A driver with standbys mirrors a Commit
	// result to them before it sends the result to any worker.
	Commit bool
}

// Committed returns the Commit emit among those of one aggregator machine
// call — the first of its fan-out, which is one packet, pointer-equal across
// destinations; a call concludes at most one round — or nil.
func Committed(emits []Emit) *Emit {
	for i := range emits {
		if emits[i].Commit {
			return &emits[i]
		}
	}
	return nil
}

// Encode appends the emit's wire encoding to dst and returns the extended
// slice.
func (e *Emit) Encode(dst []byte) []byte {
	if e.Packet != nil {
		return wire.AppendPacket(dst, e.Packet)
	}
	return wire.AppendSparsePacket(dst, e.Sparse)
}

// TensorView is the machines' window onto tensor data. The live driver
// backs it with a real tensor and its non-zero bitmap; the simulator backs
// it with a block-occupancy spec and shared zero-filled payloads, so the
// same machine code runs in both substrates.
type TensorView interface {
	// NumBlocks is the number of BlockSize-element blocks covering the
	// tensor (the final block may be short).
	NumBlocks() int
	// NonZero reports whether block b has any non-zero element.
	NonZero(b int) bool
	// Block returns block b's values; its length is the block's true
	// element count.
	Block(b int) []float32
	// SetBlock overwrites block b with aggregated result values.
	SetBlock(b int, data []float32)
}

// DenseView adapts a dense float32 tensor (plus its block-occupancy
// bitmap) to the TensorView interface. It is the live substrate's view; it
// mutates the underlying slice in place as results arrive.
type DenseView struct {
	t  *tensor.Dense
	bm *tensor.Bitmap
	bs int
	nb int
}

// NewDenseView wraps data with block size bs. When forceDense is set the
// occupancy bitmap is skipped entirely: NonZero must not be consulted (the
// machines do not when Config.ForceDense is set). Otherwise the scan also
// writes +0.0 over every zero block's -0.0s: a block zero on every worker
// is never sent, and this way every worker ends it with the same bits.
func NewDenseView(data []float32, bs int, forceDense bool) *DenseView {
	t := tensor.FromSlice(data)
	v := &DenseView{t: t, bs: bs, nb: t.NumBlocks(bs)}
	if !forceDense {
		v.bm = tensor.ComputeBitmapNormalized(t, bs)
	}
	return v
}

// NumBlocks implements TensorView.
func (v *DenseView) NumBlocks() int { return v.nb }

// NonZero implements TensorView.
func (v *DenseView) NonZero(b int) bool { return v.bm.Get(b) }

// Block implements TensorView.
func (v *DenseView) Block(b int) []float32 { return v.t.Block(b, v.bs) }

// SetBlock implements TensorView.
func (v *DenseView) SetBlock(b int, data []float32) { v.t.SetBlock(b*v.bs, data) }
