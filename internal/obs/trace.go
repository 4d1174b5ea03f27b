package obs

import (
	"sync/atomic"

	"omnireduce/internal/metrics"
)

// Event identifies one kind of datapath trace event. Events carry the
// tensor ID of the collective they belong to (0 when not applicable) and
// one event-specific argument (a byte count, a latency, a block count).
type Event uint8

const (
	// EvOpBegin fires when a worker starts a collective; arg is the
	// tensor element count.
	EvOpBegin Event = iota
	// EvOpEnd fires when a collective completes; arg is its latency in
	// nanoseconds.
	EvOpEnd
	// EvBlockSent fires when a worker's machine transmits data blocks;
	// arg is the block-count delta.
	EvBlockSent
	// EvBlockRecvd fires when an aggregator machine aggregates inbound
	// blocks; arg is the block-count delta.
	EvBlockRecvd
	// EvPacketSent fires per transmitted packet; arg is the encoded size
	// in bytes.
	EvPacketSent
	// EvPacketRecvd fires per received packet; arg is the encoded size in
	// bytes.
	EvPacketRecvd
	// EvRetransmit fires per timer-driven resend (Algorithm 2 repair
	// traffic).
	EvRetransmit
	// EvStaleDrop fires when a worker's receive pump drops a message for
	// a finished or unknown collective.
	EvStaleDrop
	// EvOverflowDrop fires when a worker's receive pump drops a message
	// because the owning operation's queue is full (unreliable mode; the
	// retransmission protocol recovers).
	EvOverflowDrop
	// EvPoolGet / EvPoolPut fire on transport buffer-pool traffic; arg is
	// the buffer length.
	EvPoolGet
	EvPoolPut
	// EvDecodeStateGet / EvDecodeStatePut fire on decode-state pool
	// borrow/return.
	EvDecodeStateGet
	EvDecodeStatePut

	// The slot-pipeline events below are emitted by the protocol machines
	// themselves (internal/protocol), so the live cluster and the
	// discrete-event simulator produce identical streams for identical
	// runs — the property the drift tier asserts. They carry full
	// node/slot/round tags via EmitSlot.

	// EvSlotIssue fires when a worker machine transmits a fresh (non
	// retransmitted) data packet into a stream slot; arg is the number of
	// data blocks in the packet.
	EvSlotIssue
	// EvSlotComplete fires when an aggregator machine concludes a round
	// on a slot and multicasts its result; arg is the number of result
	// blocks.
	EvSlotComplete
	// EvLookaheadSkip fires when a worker machine's next-non-zero
	// look-ahead advances past zero blocks; arg is the number of blocks
	// skipped (each zero block is skipped exactly once per worker).
	EvLookaheadSkip

	// Reserved, no longer emitted: serialized traces depend on the enum's numeric values.
	EvTxBatch
	EvRxBatch

	// EvMachinePoolGet / EvMachinePoolPut fire when a protocol machine's
	// pooled state (worker machines, aggregator slots, sparse slots) is
	// acquired or released; appended after the batch events so earlier
	// serialized traces keep their numeric values.
	EvMachinePoolGet
	EvMachinePoolPut

	// EvViewChange fires when a node adopts a new membership view (arg:
	// the new epoch); EvCheckpoint when an aggregator streams a slot-state
	// checkpoint to a standby (arg: encoded bytes). Driver-side events, so
	// failover shows up in flight-recorder dumps and timelines.
	EvViewChange
	EvCheckpoint

	// NumEvents is the number of event kinds (array sizing).
	NumEvents
)

var eventNames = [NumEvents]string{
	EvOpBegin:        "op_begin",
	EvOpEnd:          "op_end",
	EvBlockSent:      "block_sent",
	EvBlockRecvd:     "block_recvd",
	EvPacketSent:     "packet_sent",
	EvPacketRecvd:    "packet_recvd",
	EvRetransmit:     "retransmit",
	EvStaleDrop:      "stale_drop",
	EvOverflowDrop:   "overflow_drop",
	EvPoolGet:        "pool_get",
	EvPoolPut:        "pool_put",
	EvDecodeStateGet: "decode_state_get",
	EvDecodeStatePut: "decode_state_put",
	EvSlotIssue:      "slot_issue",
	EvSlotComplete:   "slot_complete",
	EvLookaheadSkip:  "lookahead_skip",
	EvTxBatch:        "tx_batch",
	EvRxBatch:        "rx_batch",
	EvMachinePoolGet: "machine_pool_get",
	EvMachinePoolPut: "machine_pool_put",
	EvViewChange:     "view_change",
	EvCheckpoint:     "checkpoint",
}

// MachineEvents lists the event kinds emitted by the protocol machines
// themselves (as opposed to by a substrate driver). These are the kinds
// for which live-vs-simulator event streams must be identical, since the
// machines are the single shared implementation.
var MachineEvents = [...]Event{EvSlotIssue, EvSlotComplete, EvLookaheadSkip, EvRetransmit}

// String returns the event's snake_case name.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "unknown"
}

// Tracer receives datapath trace events. Implementations must be safe
// for concurrent use and must not block: Trace is called from receive
// pumps and per-operation goroutines. The tid is the collective's tensor
// ID (0 when the event is not tied to one).
type Tracer interface {
	Trace(ev Event, tid uint32, arg int64)
}

// SlotTracer is the full-fidelity tracer interface: events tagged with
// the emitting node, the stream slot, and the protocol round, which is
// what the flight recorder and the timeline analyzer consume. Tracers
// that do not implement it receive slot events through plain Trace with
// the extra tags dropped.
type SlotTracer interface {
	Tracer
	TraceSlot(ev Event, node int32, tid uint32, slot uint16, round uint8, arg int64)
}

// tracerBox wraps the interface so an atomic.Pointer can hold it. The
// SlotTracer assertion happens once at install time, keeping EmitSlot's
// hot path free of interface type switches.
type tracerBox struct {
	t  Tracer
	st SlotTracer // non-nil when t implements SlotTracer
}

var activeTracer atomic.Pointer[tracerBox]

// SetTracer installs t as the process-wide tracer; nil disables tracing.
// The previous tracer (nil if none) is returned so callers can restore
// it.
func SetTracer(t Tracer) Tracer {
	var prev Tracer
	var next *tracerBox
	if t != nil {
		next = &tracerBox{t: t}
		if st, ok := t.(SlotTracer); ok {
			next.st = st
		}
	}
	if old := activeTracer.Swap(next); old != nil {
		prev = old.t
	}
	return prev
}

// Enabled reports whether a tracer is installed. Call sites that must
// compute an event argument (a stats delta, a decode) guard the
// computation with Enabled; plain Emit calls need no guard.
func Enabled() bool { return activeTracer.Load() != nil }

// Emit delivers one event to the installed tracer. With no tracer the
// cost is one atomic load and one branch — the disabled-path budget the
// datapath is designed around.
func Emit(ev Event, tid uint32, arg int64) {
	if b := activeTracer.Load(); b != nil {
		b.t.Trace(ev, tid, arg)
	}
}

// EmitSlot delivers one fully tagged slot-pipeline event. Tracers that
// implement SlotTracer receive every tag; plain tracers receive the event
// through Trace. The disabled path is identical to Emit's: one atomic
// load and one branch, so the protocol machines can call it
// unconditionally without perturbing either substrate.
func EmitSlot(ev Event, node int32, tid uint32, slot uint16, round uint8, arg int64) {
	b := activeTracer.Load()
	if b == nil {
		return
	}
	if b.st != nil {
		b.st.TraceSlot(ev, node, tid, slot, round, arg)
		return
	}
	b.t.Trace(ev, tid, arg)
}

// CountingTracer tallies events per kind: the cheapest useful tracer,
// and the one tests assert against. Counting is wait-free.
type CountingTracer struct {
	counts [NumEvents]atomic.Int64
	args   [NumEvents]atomic.Int64
}

// NewCountingTracer returns a zeroed counting tracer.
func NewCountingTracer() *CountingTracer { return &CountingTracer{} }

// Trace implements Tracer.
func (c *CountingTracer) Trace(ev Event, _ uint32, arg int64) {
	if ev >= NumEvents {
		return
	}
	c.counts[ev].Add(1)
	c.args[ev].Add(arg)
}

// Count returns how many events of kind ev were traced.
func (c *CountingTracer) Count(ev Event) int64 {
	if ev >= NumEvents {
		return 0
	}
	return c.counts[ev].Load()
}

// ArgSum returns the sum of the args of kind ev (total bytes sent for
// EvPacketSent, total blocks for EvBlockSent, ...).
func (c *CountingTracer) ArgSum(ev Event) int64 {
	if ev >= NumEvents {
		return 0
	}
	return c.args[ev].Load()
}

// Counters exports the non-zero tallies as a metrics counter set.
func (c *CountingTracer) Counters() *metrics.Counters {
	out := metrics.NewCounters()
	for ev := Event(0); ev < NumEvents; ev++ {
		if n := c.counts[ev].Load(); n != 0 {
			out.Add("trace_"+ev.String(), n)
		}
	}
	return out
}

// MultiTracer fans events out to several tracers (e.g. counting + a
// flight recorder).
type MultiTracer []Tracer

// Trace implements Tracer.
func (m MultiTracer) Trace(ev Event, tid uint32, arg int64) {
	for _, t := range m {
		t.Trace(ev, tid, arg)
	}
}

// TraceSlot implements SlotTracer: children that understand slot tags get
// them; plain tracers get the untagged event.
func (m MultiTracer) TraceSlot(ev Event, node int32, tid uint32, slot uint16, round uint8, arg int64) {
	for _, t := range m {
		if st, ok := t.(SlotTracer); ok {
			st.TraceSlot(ev, node, tid, slot, round, arg)
		} else {
			t.Trace(ev, tid, arg)
		}
	}
}
