package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
)

// ErrOpBackpressure fails a collective whose inbound queue overflowed on
// a reliable transport. Dropping a reliable-mode message would silently
// violate the protocol's no-loss assumption (there are no retransmission
// timers to repair it), so the receive pump fails the one slow operation
// explicitly instead of either stalling every other in-flight collective
// behind it or wedging the protocol.
var ErrOpBackpressure = errors.New("core: operation receive queue overflow")

// opQueue is one in-flight collective's inbound message queue, the
// hand-off point between the worker's single receive pump and the
// per-operation driver goroutine.
//
// Its locking discipline fixes two receive-path bugs:
//
//   - Lifecycle race: the pump used to look the channel up under w.mu,
//     release the lock, then block on the send. endOp could delete the
//     operation in between, leaving the message — and its pooled buffer —
//     stranded forever in a channel nobody would read. Now delivery
//     checks `done` and enqueues under one mutex, and endOp marks done
//     under the same mutex before draining, so every message either
//     reaches a live reader or is recycled. Nothing is ever stranded.
//
//   - Head-of-line blocking: the blocking send also meant one slow
//     collective with a full queue stalled the pump, and with it every
//     other in-flight collective sharing the connection. Delivery is now
//     non-blocking: on overflow the message is dropped and counted
//     (unreliable mode — Algorithm 2's retransmission repairs it), or the
//     one offending operation is failed with ErrOpBackpressure (reliable
//     mode). The pump never blocks on any operation's queue.
//
// Queues outlive single collectives: a worker parks finished queues (as
// part of opState) on a free list and re-arms them with reset. The tid
// field makes reuse safe — the pump looks a queue up under w.mu but
// delivers without it, so a delivery can race the queue's reassignment to
// a new tensor; deliver rejects any message whose tensor ID is not the
// one the queue currently serves.
type opQueue struct {
	ch   chan transport.Message
	fail chan struct{} // closed on reliable-mode overflow
	// viewCh notifies the driver of membership view changes (capacity 1,
	// coalescing: only the newest view matters — see notifyView).
	viewCh chan protocol.View

	mu     sync.Mutex
	tid    uint32 // tensor this queue currently serves
	done   bool   // endOp ran; no further enqueues
	failed bool   // fail already closed
}

func newOpQueue(capacity int, tid uint32) *opQueue {
	return &opQueue{
		ch:     make(chan transport.Message, capacity),
		fail:   make(chan struct{}),
		viewCh: make(chan protocol.View, 1),
		tid:    tid,
	}
}

// notifyView hands a newly adopted view to the operation's driver without
// blocking: an unconsumed older notification is replaced (epochs are
// monotonic, so the newest view subsumes it). Safe to call from the
// receive pump.
func (q *opQueue) notifyView(v protocol.View) {
	for {
		select {
		case q.viewCh <- v:
			return
		default:
		}
		select {
		case <-q.viewCh:
		default:
		}
	}
}

// reset re-arms a finished queue for a new tensor. Only call between
// operations, after finish has run and before the queue is registered for
// the new tensor (the worker's free-list discipline guarantees no driver
// goroutine references the queue in that window). finish drained ch under
// the done flag, so the channel is empty; a tripped fail channel is
// replaced.
func (q *opQueue) reset(tid uint32) {
	q.mu.Lock()
	q.tid = tid
	q.done = false
	if q.failed {
		q.failed = false
		q.fail = make(chan struct{})
	}
	q.mu.Unlock()
}

// deliver hands one inbound message to the operation without blocking.
// It takes ownership of m.Data: the buffer is either enqueued for the
// operation's driver (which recycles it after decoding) or returned to
// the pool here.
func (q *opQueue) deliver(m transport.Message, reliable bool, pump *pumpCounters) {
	tid, _ := peekTensorID(m.Data)
	q.mu.Lock()
	if q.done || q.tid != tid {
		q.mu.Unlock()
		transport.PutBuf(m.Data)
		pump.staleDrops.Add(1)
		obsPumpStale.Inc()
		obs.Emit(obs.EvStaleDrop, tid, int64(len(m.Data)))
		return
	}
	select {
	case q.ch <- m:
		q.mu.Unlock()
		pump.delivered.Add(1)
		obsPumpDelivered.Inc()
		return
	default:
	}
	// Queue full. Never block the pump: drop, and in reliable mode fail
	// the operation (a reliable-mode drop is otherwise unrecoverable).
	if reliable && !q.failed {
		q.failed = true
		close(q.fail)
	}
	q.mu.Unlock()
	transport.PutBuf(m.Data)
	pump.overflowDrops.Add(1)
	obsPumpOverflow.Inc()
	obs.Emit(obs.EvOverflowDrop, tid, int64(len(m.Data)))
}

// finish marks the queue dead and recycles everything still enqueued.
// deliver checks done under q.mu before enqueueing, so after finish
// returns no pooled buffer remains in, or can ever enter, the queue.
func (q *opQueue) finish() {
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	for {
		select {
		case m := <-q.ch:
			transport.PutBuf(m.Data)
		default:
			return
		}
	}
}

// pumpCounters tallies the receive pump's routing decisions.
type pumpCounters struct {
	delivered     atomic.Int64
	staleDrops    atomic.Int64
	overflowDrops atomic.Int64
	badPackets    atomic.Int64
}

// PumpStats is a point-in-time copy of the receive pump's counters.
type PumpStats struct {
	// Delivered is the number of messages routed to a live operation.
	Delivered int64
	// StaleDrops counts messages for finished or unknown tensors
	// (duplicate results replayed after an operation completed).
	StaleDrops int64
	// OverflowDrops counts messages dropped because an operation's queue
	// was full. In unreliable mode these are repaired by retransmission;
	// in reliable mode each one also failed its operation with
	// ErrOpBackpressure.
	OverflowDrops int64
	// BadPackets counts messages too short or of unknown type.
	BadPackets int64
}

func (p *pumpCounters) snapshot() PumpStats {
	return PumpStats{
		Delivered:     p.delivered.Load(),
		StaleDrops:    p.staleDrops.Load(),
		OverflowDrops: p.overflowDrops.Load(),
		BadPackets:    p.badPackets.Load(),
	}
}
