package core

import (
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
)

// txBatchMax is the most packets a driver accumulates before forcing a
// flush: it bounds how much encoded data sits buffered.
const txBatchMax = 64

// txBatch is a driver's reusable transmit state: the batch of outgoing
// datagrams, each encoded into a buffer of its own from the transport
// pool, handed to the transport in bursts via transport.SendAll (a plain
// enqueue on the channel fabric, a Send loop elsewhere). Allocated once
// per driver loop — a worker's persistent opState or an aggregator shard —
// and reused for every emit burst, so the steady-state transmit path
// allocates nothing.
//
// Emitted packets are machine-owned and read-only (see protocol.Emit);
// batching delays the Send, not the Encode, so the ownership story is
// unchanged: every emit is encoded before sendEmits returns. The encoded
// buffers are given away with the flush (see transport.Outgoing), which
// is why a multicast is encoded once per destination: each receiver
// releases the buffer it was handed.
type txBatch struct {
	// observe is called once per transmitted packet with its tensor ID
	// and encoded size; package-level funcs only (no closure captures).
	observe func(tid uint32, n int)
	// flushFull/flushEnd count why each flush happened: the batch filled
	// up mid-burst, or the burst ended. A full-heavy mix means emits come
	// in windows larger than txBatchMax; an end-heavy mix means bursts
	// are small.
	flushFull *obs.Counter
	flushEnd  *obs.Counter
	// resolve, when set, maps an emit's destination — the machine speaks
	// job-relative worker IDs — to a transport node ID using the emit's
	// tensor ID. Multi-tenant aggregators route named jobs' results to
	// the nodes their workers registered from; nil keeps the historic
	// identity mapping (worker ID == node ID).
	resolve func(tid uint32, dst int) int

	outs []transport.Outgoing
	tids []uint32
	one  [1]transport.Outgoing // sendOwned's batch
}

// emitTID extracts the tensor ID an emit belongs to, for per-packet
// observation.
func emitTID(e *protocol.Emit) uint32 {
	if e.Packet != nil {
		return e.Packet.TensorID
	}
	if e.Sparse != nil {
		return e.Sparse.TensorID
	}
	return 0
}

// sendEmits encodes one emit burst, each packet into a pooled buffer of
// its exact encoded size (Emit.Size), and transmits it in batches.
func (b *txBatch) sendEmits(conn transport.Conn, emits []protocol.Emit) error {
	for i := range emits {
		e := &emits[i]
		tid := emitTID(e)
		dst := e.Dst
		if b.resolve != nil {
			dst = b.resolve(tid, dst)
		}
		b.outs = append(b.outs, transport.Outgoing{To: dst, Data: e.Encode(transport.GetBuf(e.Size)[:0])})
		b.tids = append(b.tids, tid)
		if len(b.outs) >= txBatchMax {
			if err := b.flush(conn, b.flushFull); err != nil {
				return err
			}
		}
	}
	return b.flush(conn, b.flushEnd)
}

// sendOwned transmits one buffer the caller gives away, at once and ahead
// of the next burst: what sendEmits sends afterwards is behind it on every
// per-pair FIFO link.
func (b *txBatch) sendOwned(conn transport.Conn, to int, data []byte) error {
	b.one[0] = transport.Outgoing{To: to, Data: data}
	return transport.SendAll(conn, b.one[:])
}

// flush gives the queued batch to the transport and records per-packet
// observations. The buffers are gone after SendAll, whatever it returns;
// only their lengths are read afterwards.
func (b *txBatch) flush(conn transport.Conn, reason *obs.Counter) error {
	if len(b.outs) == 0 {
		return nil
	}
	err := transport.SendAll(conn, b.outs)
	if err == nil {
		reason.Inc()
		for i := range b.outs {
			b.observe(b.tids[i], len(b.outs[i].Data))
		}
	}
	b.outs = b.outs[:0]
	b.tids = b.tids[:0]
	return err
}
