package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: the always-cheap, bounded-memory event log that makes
// a wedged or slow collective explainable after the fact. It retains the
// last N fully tagged events (monotonic timestamp, node, op, slot, round,
// arg) in sharded lock-free rings; a dump is a consistent-enough snapshot
// that cmd/tracetool and internal/obs/timeline turn into per-slot
// pipeline timelines, occupancy, and look-ahead statistics.
//
// Design constraints:
//
//   - Recording must be allocation-free and lock-free: the recorder is
//     installed during chaos runs, drift runs, and (via the stall
//     watchdog) potentially in production, so it shares the enabled-path
//     budget of the counting tracer. Each record is packed into a fixed
//     set of atomic words; claiming a ring position is one atomic add.
//   - Shards approximate per-goroutine rings: the shard is picked by the
//     (tid, slot, event-class) stream key, and in the live driver each
//     (operation, slot) event stream is produced by a single goroutine,
//     so shards are single-writer in steady state. When two goroutines do
//     collide on a shard, a per-entry seqlock keeps records tear-free:
//     readers discard entries whose sequence changed mid-copy.
//   - Reading (Records/Dump) may run concurrently with recording — the
//     stall watchdog snapshots a live system — and must never block
//     writers.

// Record is one fully tagged flight-recorder event.
type Record struct {
	// TS is the event time in nanoseconds since the recorder's origin
	// (monotonic wall clock; the timeline analyzer aligns origins across
	// nodes via op-begin anchors).
	TS int64 `json:"ts"`
	// Node is the emitting node ID (-1 when unknown: events recorded
	// through the untagged Trace path on a recorder with no default node).
	Node int32 `json:"node"`
	// Ev is the event kind.
	Ev Event `json:"ev"`
	// Tid is the collective's tensor ID (0 when not tied to one).
	Tid uint32 `json:"tid"`
	// Slot is the stream slot (meaningful for slot-pipeline events).
	Slot uint16 `json:"slot"`
	// Round is the protocol round counter mod 256.
	Round uint8 `json:"round"`
	// Arg is the event-specific argument (bytes, blocks, nanoseconds).
	Arg int64 `json:"arg"`
}

// frEntry is one ring cell: a seqlock word plus the record packed into
// three atomic words, so concurrent read/write is both race-free (every
// access is atomic) and tear-free (the sequence validates the copy).
// Sequence protocol: 0 = never written; odd = write in progress; even =
// committed by claim seq/2.
type frEntry struct {
	seq atomic.Uint64
	w0  atomic.Uint64 // TS
	w1  atomic.Uint64 // Node<<32 | Tid
	w2  atomic.Uint64 // Arg
	w3  atomic.Uint64 // Ev | Slot<<8 | Round<<24
}

func (e *frEntry) store(r Record) {
	e.w0.Store(uint64(r.TS))
	e.w1.Store(uint64(uint32(r.Node))<<32 | uint64(r.Tid))
	e.w2.Store(uint64(r.Arg))
	e.w3.Store(uint64(r.Ev) | uint64(r.Slot)<<8 | uint64(r.Round)<<24)
}

func (e *frEntry) load() Record {
	w0, w1, w2, w3 := e.w0.Load(), e.w1.Load(), e.w2.Load(), e.w3.Load()
	return Record{
		TS:    int64(w0),
		Node:  int32(uint32(w1 >> 32)),
		Tid:   uint32(w1),
		Arg:   int64(w2),
		Ev:    Event(w3),
		Slot:  uint16(w3 >> 8),
		Round: uint8(w3 >> 24),
	}
}

// frShard is one single-writer-in-steady-state ring. pos is the claim
// counter (1-based); entry i lives at buf[(i-1) & mask].
type frShard struct {
	pos atomic.Uint64
	_   [56]byte // keep claim counters on distinct cache lines
	buf []frEntry
}

func (s *frShard) add(r Record) {
	i := s.pos.Add(1)
	e := &s.buf[(i-1)&uint64(len(s.buf)-1)]
	e.seq.Store(2*i - 1) // odd: write in progress
	e.store(r)
	e.seq.Store(2 * i) // even: committed
}

// collect appends the shard's committed records to out, discarding
// entries that a concurrent writer is overwriting.
func (s *frShard) collect(out []Record) []Record {
	for i := range s.buf {
		e := &s.buf[i]
		s1 := e.seq.Load()
		if s1 == 0 || s1%2 == 1 {
			continue
		}
		r := e.load()
		if e.seq.Load() != s1 {
			continue // torn by a concurrent writer; drop
		}
		out = append(out, r)
	}
	return out
}

// FlightRecorder retains the most recent events across a set of sharded
// rings. It implements Tracer and SlotTracer, so it can be installed
// process-wide with SetTracer (alone or inside a MultiTracer).
type FlightRecorder struct {
	node   int32
	origin time.Time
	mask   uint32
	keep   uint32 // event filter bitmask (1<<ev); set before install
	shards []frShard
}

// DefaultFlightEvents is the per-shard ring capacity used by
// NewFlightRecorder when the caller passes 0.
const DefaultFlightEvents = 4096

// DefaultFlightKeep is the recorder's default event filter: protocol and
// operation-lifecycle events. The per-packet and per-buffer firehose
// (packet/block send and receive, pool and decode-state churn) is
// excluded — at datapath rates it would evict the protocol history the
// ring exists to retain, and its shard claim counters would contend on
// the packet hot path (the counting tracer covers those events at a
// counter's cost). Override with Keep.
var DefaultFlightKeep = []Event{
	EvOpBegin, EvOpEnd, EvRetransmit, EvStaleDrop, EvOverflowDrop,
	EvSlotIssue, EvSlotComplete, EvLookaheadSkip,
}

// NewFlightRecorder returns a recorder whose untagged events default to
// node tag `node` (use -1 for "unknown") and whose every shard retains
// the last perShard events (rounded up to a power of two;
// DefaultFlightEvents when 0). The shard count is derived from
// GOMAXPROCS; total capacity is shards*perShard.
func NewFlightRecorder(node int32, perShard int) *FlightRecorder {
	if perShard <= 0 {
		perShard = DefaultFlightEvents
	}
	perShard = ceilPow2(perShard)
	ns := ceilPow2(runtime.GOMAXPROCS(0))
	if ns > 64 {
		ns = 64
	}
	fr := &FlightRecorder{
		node:   node,
		origin: time.Now(),
		mask:   uint32(ns - 1),
		shards: make([]frShard, ns),
	}
	for i := range fr.shards {
		fr.shards[i].buf = make([]frEntry, perShard)
	}
	return fr.Keep(DefaultFlightKeep...)
}

// Keep replaces the recorder's event filter: only the listed event kinds
// are recorded. Configure before installing the recorder with SetTracer;
// returns the recorder for chaining.
func (fr *FlightRecorder) Keep(evs ...Event) *FlightRecorder {
	var m uint32
	for _, ev := range evs {
		if ev < NumEvents {
			m |= 1 << uint(ev)
		}
	}
	fr.keep = m
	return fr
}

// KeepAll disables the event filter: every event kind is recorded,
// including the per-packet firehose. For short diagnostic captures where
// eviction and hot-path cost are acceptable.
func (fr *FlightRecorder) KeepAll() *FlightRecorder {
	fr.keep = 1<<uint(NumEvents) - 1
	return fr
}

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// Now returns the recorder-origin-relative monotonic timestamp stamped on
// records, for callers correlating external observations with the dump.
func (fr *FlightRecorder) Now() int64 { return int64(time.Since(fr.origin)) }

// shardFor picks the ring for an event stream. (tid, slot) streams map
// stably to one shard — in the live driver each such stream is emitted by
// one goroutine, so rings are effectively single-writer; the event kind
// is mixed in to spread untagged pool traffic across shards.
func (fr *FlightRecorder) shardFor(ev Event, tid uint32, slot uint16) *frShard {
	h := tid*0x9E3779B1 ^ (uint32(slot)+1)*0x85EBCA77 ^ uint32(ev)*0xC2B2AE35
	return &fr.shards[h&fr.mask]
}

// Trace implements Tracer: events recorded without slot tags.
func (fr *FlightRecorder) Trace(ev Event, tid uint32, arg int64) {
	fr.TraceSlot(ev, fr.node, tid, 0, 0, arg)
}

// TraceSlot implements SlotTracer.
func (fr *FlightRecorder) TraceSlot(ev Event, node int32, tid uint32, slot uint16, round uint8, arg int64) {
	if ev >= NumEvents || fr.keep&(1<<uint(ev)) == 0 {
		return
	}
	fr.shardFor(ev, tid, slot).add(Record{
		TS:    fr.Now(),
		Node:  node,
		Ev:    ev,
		Tid:   tid,
		Slot:  slot,
		Round: round,
		Arg:   arg,
	})
}

// Records returns a snapshot of the retained events sorted by timestamp.
// It is safe to call while recording continues; records overwritten or
// mid-write during the snapshot are simply absent.
func (fr *FlightRecorder) Records() []Record {
	var out []Record
	for i := range fr.shards {
		out = fr.shards[i].collect(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Ev < out[j].Ev
	})
	return out
}

// FlightDump is the serialized form of a recorder snapshot: what one
// process (a worker, an aggregator, or a whole in-process cluster)
// contributes to a merged timeline.
type FlightDump struct {
	// Node is the dump's default node tag (-1 for a multi-node in-process
	// dump whose records carry their own tags).
	Node int32 `json:"node"`
	// Wall is the recorder's origin in wall-clock time (RFC3339Nano);
	// informational only — cross-dump alignment uses op-begin anchors,
	// never wall clocks.
	Wall string `json:"wall"`
	// Tags carries emitter-provided metadata (e.g. the expected
	// look-ahead skip ratio of a generated workload, which cmd/tracetool
	// checks the measured ratio against).
	Tags map[string]string `json:"tags,omitempty"`
	// Records are the retained events, oldest first.
	Records []Record `json:"records"`
}

// Dump snapshots the recorder into its serializable form.
func (fr *FlightRecorder) Dump() FlightDump {
	return FlightDump{
		Node:    fr.node,
		Wall:    fr.origin.Format(time.RFC3339Nano),
		Records: fr.Records(),
	}
}

// WriteJSON writes the dump as indented JSON.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadFlightDump parses one dump written by WriteJSON.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// ActiveFlightRecorder returns the process-wide flight recorder, if one
// is installed via SetTracer — directly or anywhere inside a nest of
// MultiTracers. The stall watchdog uses this to bundle the recorder's
// dump into a postmortem without threading the recorder through every
// config.
func ActiveFlightRecorder() *FlightRecorder {
	b := activeTracer.Load()
	if b == nil {
		return nil
	}
	return findFlightRecorder(b.t)
}

func findFlightRecorder(t Tracer) *FlightRecorder {
	switch v := t.(type) {
	case *FlightRecorder:
		return v
	case MultiTracer:
		for _, c := range v {
			if fr := findFlightRecorder(c); fr != nil {
				return fr
			}
		}
	}
	return nil
}
