package core

import "omnireduce/internal/protocol"

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
}

// newOpState builds the state for its first operation.
func (w *Worker) newOpState(tid uint32) *opState {
	return &opState{
		q:   newOpQueue(w.cfg.OpQueueLen, tid),
		dec: getDecodeState(),
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
