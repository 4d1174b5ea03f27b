package core

import (
	"fmt"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/wire"
)

// opState is the per-collective driver state a worker keeps hot across
// operations: the inbound message queue, the receive-side decode state,
// and the transmit batch. One collective
// owns the state exclusively from beginOp to endOp; between collectives
// it parks on the worker's free list, so the second and later operations
// on a connection run the whole datapath — decode, encode, queueing —
// against already-allocated memory. The protocol machine is pooled too
// (protocol.GetWorkerMachine/Recycle) and appends its emits to the
// state's reusable EmitBuf, so steady-state rounds run without any
// allocation at all.
//
// Reuse safety is anchored in opQueue: the queue carries the tensor ID it
// currently serves and deliver drops (as stale) any message whose tensor
// ID does not match, which closes the race where the receive pump still
// holds a queue reference from a finished operation when the queue is
// reset for a new one.
type opState struct {
	q   *opQueue
	dec *decodeState
	tx  txBatch
	eb  protocol.EmitBuf

	// rt is the retransmission timer, stopped between operations; drive
	// arms it at the machine's NextTimeout.
	rt *time.Timer

	// dense and kv adapt the operation's machine to the driver loop. They
	// live here so that handing one to drive as an opMachine allocates
	// nothing.
	dense denseOp
	kv    kvOp
}

// newOpState builds the state for its first operation.
func (w *Worker) newOpState(tid uint32) *opState {
	rt := time.NewTimer(time.Hour)
	rt.Stop()
	return &opState{
		q:   newOpQueue(w.cfg.OpQueueLen, tid),
		dec: getDecodeState(),
		rt:  rt,
		tx: txBatch{
			observe:   observeWorkerTx,
			flushFull: obsWorkerFlushFull,
			flushEnd:  obsWorkerFlushEnd,
		},
	}
}

// release returns the state's pooled resources. Called when the worker is
// shutting down (states are otherwise recycled, not released); after it,
// the state must not be reused.
func (st *opState) release() {
	if st.dec != nil {
		putDecodeState(st.dec)
		st.dec = nil
	}
}

// opMachine is what the worker driver loop needs of a started worker
// machine, whatever its format.
type opMachine interface {
	// step runs one inbound message through the machine: it refuses a
	// message of another format, decodes the rest as views of data, and
	// hands them to HandlePacket.
	step(data []byte, now time.Duration, eb *protocol.EmitBuf) error
	HandleTimeout(now time.Duration, eb *protocol.EmitBuf) error
	NextTimeout() (time.Duration, bool)
	Rebind(aggs []int, now time.Duration, eb *protocol.EmitBuf)
	Done() bool
	Stats() protocol.WorkerStats
}

// denseOp adapts the block-format machine (Algorithms 1 and 2).
type denseOp struct {
	*protocol.WorkerMachine
	dec *decodeState
}

func (a *denseOp) step(data []byte, now time.Duration, eb *protocol.EmitBuf) error {
	if wire.PeekType(data) != wire.TypeResult {
		return refused(data)
	}
	p, err := a.dec.decodeDense(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return a.HandlePacket(p, now, eb)
}

// kvOp adapts the key-value machine (Algorithm 3).
type kvOp struct {
	*protocol.SparseWorkerMachine
	dec *decodeState
}

func (a *kvOp) step(data []byte, _ time.Duration, eb *protocol.EmitBuf) error {
	if wire.PeekType(data) != wire.TypeSparseResult {
		return refused(data)
	}
	p, err := a.dec.decodeSparse(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return a.HandlePacket(p, eb)
}

// NextTimeout asks for no timer: the key-value mode requires Reliable, so
// HandleTimeout is never called.
func (a *kvOp) NextTimeout() (time.Duration, bool) { return 0, false }

func (a *kvOp) HandleTimeout(time.Duration, *protocol.EmitBuf) error { return nil }

// Rebind does nothing: the key-value path has no failover (DESIGN §12).
func (a *kvOp) Rebind([]int, time.Duration, *protocol.EmitBuf) {}

// refused is a step's error for a message its format does not read: an
// aggregator's TypeOpReject as its typed admission error, anything else as
// an unexpected type.
func refused(data []byte) error {
	t := wire.PeekType(data)
	if t == wire.TypeOpReject {
		if cp, err := wire.DecodeControl(data); err == nil {
			if e := tenant.ErrorForReason(cp.Reason); e != nil {
				return e
			}
			return tenant.ErrAdmissionRejected
		}
	}
	return fmt.Errorf("unexpected message type %d", t)
}
