package protocol

import (
	"fmt"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/wire"
)

// WorkerStats counts one machine's protocol traffic. The driver is
// responsible for publishing these (internal/core mirrors them into its
// atomic Stats; the simulator reads them directly after the run).
type WorkerStats struct {
	BlocksSent    int64 // non-bootstrap data blocks transmitted
	BlocksSkipped int64 // zero blocks passed over by the next-non-zero look-ahead (elided bootstrap blocks included)
	PacketsSent   int64
	BytesSent     int64 // encoded packet bytes, including retransmissions
	Retransmits   int64 // timer-driven resends, distinct from PacketsSent
	AcksSent      int64 // empty payload packets (unreliable mode)
	ResultsRecvd  int64
	StaleResults  int64 // duplicate or out-of-round results filtered out
	Backoffs      int64 // retransmissions sent at a backed-off (>base) timeout
}

// Add folds o into s field for field.
func (s *WorkerStats) Add(o WorkerStats) {
	s.BlocksSent += o.BlocksSent
	s.BlocksSkipped += o.BlocksSkipped
	s.PacketsSent += o.PacketsSent
	s.BytesSent += o.BytesSent
	s.Retransmits += o.Retransmits
	s.AcksSent += o.AcksSent
	s.ResultsRecvd += o.ResultsRecvd
	s.StaleResults += o.StaleResults
	s.Backoffs += o.Backoffs
}

// WorkerOp is a started worker machine of either format, as a driver loop
// sees it: WorkerMachine (Algorithms 1 and 2) and SparseWorkerMachine
// (Algorithm 3). Each format's constructor and Start differ; everything
// after Start goes through these methods, so the live worker and the
// simulator each run one loop for both formats.
type WorkerOp interface {
	// HandleMsg consumes one decoded inbound message. A message of the
	// other format, or of a type other than a result, is refused with an
	// error and changes nothing.
	HandleMsg(msg Msg, now time.Duration, eb *EmitBuf) error
	// HandleTimeout resends what is overdue at now.
	HandleTimeout(now time.Duration, eb *EmitBuf) error
	// NextTimeout is the earliest retransmission deadline, if any.
	NextTimeout() (time.Duration, bool)
	// Rebind routes by a new aggregator list after a view change.
	Rebind(aggs []int, now time.Duration, eb *EmitBuf)
	Done() bool
	Stats() WorkerStats
}

var (
	_ WorkerOp = (*WorkerMachine)(nil)
	_ WorkerOp = (*SparseWorkerMachine)(nil)
)

// wStream is the per-stream worker state for one AllReduce. The struct
// (and its next-offset scratch and packet shells) is retained across
// collectives by the owning machine, so the steady state re-sends through
// warmed arrays instead of remaking them.
type wStream struct {
	idx      int
	lo, hi   int // global block range (shard)
	cols     int
	next     []int // per-column next unsent non-zero global block (-1 none)
	ver      uint8 // round number mod 256 of the last sent packet
	done     bool
	last     *wire.Packet // last transmitted packet, for retransmission
	lastSize int
	sentAt   time.Duration
	retries  int           // retransmissions of the current packet
	timeout  time.Duration // current loss-detection timer (backs off)

	// shells are the stream's two reusable outbound packets, flipped each
	// send: the shell emitted for round r is only rebuilt at round r+2, by
	// which time the driver has long consumed it (the Emit contract says
	// consume before the next machine call, and round r+2 is two calls
	// later). `last` always points at the newest shell, so retransmission
	// replays it untouched.
	shells [2]wire.Packet
	flip   int
}

// shell flips to the stream's other packet shell and returns it truncated,
// with Nexts resized to the stream's column count.
func (st *wStream) shell() *wire.Packet {
	st.flip ^= 1
	p := &st.shells[st.flip]
	if cap(p.Nexts) < st.cols {
		p.Nexts = make([]uint32, st.cols)
	}
	p.Nexts = p.Nexts[:st.cols]
	p.Blocks = p.Blocks[:0]
	return p
}

// WorkerMachine is the worker side of one collective operation: Algorithm
// 1's streaming (reliable mode) or Algorithm 2's versioned rounds with
// acks and retransmission policy (unreliable mode), over the §3.1.1 stream
// shards and §3.2 fused columns.
//
// The machine is purely event-driven: Start emits the bootstrap packets,
// HandlePacket consumes one aggregator result and emits the next round's
// packets, HandleTimeout retransmits overdue packets. All times are
// driver-supplied durations from an arbitrary fixed origin (the live
// driver uses time.Since(opStart); the simulator uses virtual time).
// Methods must not be called concurrently.
//
// Machines are reusable: GetWorkerMachine/Recycle cycle one machine (with
// its stream tables and packet shells) through consecutive collectives,
// and init re-arms it exactly like NewWorkerMachine.
type WorkerMachine struct {
	cfg     Config
	id      int
	tid     uint32
	view    TensorView
	streams []*wStream
	active  int
	started bool
	jitter  uint64 // splitmix64 state of the retransmission jitter
	stats   WorkerStats
}

// NewWorkerMachine creates the machine for worker workerID's participation
// in collective tensorID. The jitter source is seeded deterministically
// per (worker, tensor) so reruns of a job schedule identical
// retransmission patterns.
func NewWorkerMachine(cfg Config, workerID int, tensorID uint32) *WorkerMachine {
	m := &WorkerMachine{}
	m.init(cfg, workerID, tensorID)
	return m
}

// init re-arms the machine for a new collective, preserving warmed stream
// state (shards are recomputed by Start). It is NewWorkerMachine's body
// and the pool's reset hook.
func (m *WorkerMachine) init(cfg Config, workerID int, tensorID uint32) {
	cfg = cfg.WithDefaults()
	m.cfg = cfg
	m.id = workerID
	m.tid = tensorID
	m.view = nil
	m.active = 0
	m.started = false
	m.stats = WorkerStats{}
	m.jitter = uint64(workerID)<<32 ^ uint64(tensorID)
}

// Stats returns a copy of the machine's traffic counters.
func (m *WorkerMachine) Stats() WorkerStats { return m.stats }

// Done reports whether every stream has received its final result.
func (m *WorkerMachine) Done() bool { return m.started && m.active == 0 }

func (m *WorkerMachine) dtype() uint8 {
	if m.cfg.HalfPrecision {
		return wire.DTypeF16
	}
	return wire.DTypeF32
}

func (m *WorkerMachine) nonZero(b int) bool {
	if m.cfg.ForceDense {
		return true
	}
	return m.view.NonZero(b)
}

// Start begins the collective over view, emitting one bootstrap packet per
// stream into eb. The packet always goes — it announces the per-column
// next non-zero offsets (Algorithm 1 line 5 generalized to fusion) — but a
// column's first block rides in it only when it is non-zero: the paper
// sends that block unconditionally, which costs one zero block per column
// per stream per worker and makes wide packets expensive on sparse
// tensors. The aggregator needs no payload to open a round (see the
// round-0 contract on aggSlot.cur), and an elided first block is a skipped
// block like any other, so per worker
//
//	bootstrap blocks + BlocksSent + BlocksSkipped == NumBlocks.
func (m *WorkerMachine) Start(view TensorView, now time.Duration, eb *EmitBuf) {
	m.view = view
	m.started = true
	nb := view.NumBlocks()
	if nb == 0 {
		m.streams = m.streams[:0]
		return
	}
	eff := EffectiveStreams(m.cfg.Streams, nb)
	for cap(m.streams) < eff {
		m.streams = append(m.streams[:cap(m.streams)], nil)
	}
	m.streams = m.streams[:eff]
	for s := 0; s < eff; s++ {
		lo, hi := Shard(s, eff, nb)
		cols := m.cfg.FusionWidth
		if hi-lo < cols {
			cols = hi - lo
		}
		if cols == 0 {
			m.streams[s] = nil
			continue // empty shard (cannot happen after EffectiveStreams)
		}
		st := m.streams[s]
		if st == nil {
			st = &wStream{}
			m.streams[s] = st
		}
		st.idx, st.lo, st.hi, st.cols = s, lo, hi, cols
		st.next = st.next[:0]
		st.ver = 0
		st.done = false
		st.last = nil
		st.lastSize = 0
		st.sentAt = 0
		st.retries = 0
		st.timeout = 0
		m.active++

		p := st.shell()
		p.Type = wire.TypeData
		p.Version = 0
		p.DType = m.dtype()
		p.Slot = uint16(s)
		p.WID = uint16(m.id)
		p.TensorID = m.tid
		p.BlockSize = uint32(m.cfg.BlockSize)
		for c := 0; c < cols; c++ {
			first := FirstInColumn(lo, hi, c, cols)
			if first < 0 {
				st.next = append(st.next, -1)
				p.Nexts[c] = wire.Inf(c)
				continue
			}
			after := first
			if m.nonZero(first) {
				p.Blocks = append(p.Blocks, wire.Block{
					Index: uint32(first),
					Data:  view.Block(first),
				})
			} else {
				// Zero first block: the look-ahead starts one column slot
				// earlier, so it passes over (and counts) first itself.
				after = first - cols
			}
			st.next = append(st.next, m.advanceNext(st, c, after))
			p.Nexts[c] = NextOffsetWire(st.next[c], c)
		}
		m.send(st, p, now, eb)
	}
}

// HandleMsg is HandlePacket for a Msg; it refuses a key-value message.
func (m *WorkerMachine) HandleMsg(msg Msg, now time.Duration, eb *EmitBuf) error {
	if msg.Dense == nil {
		return fmt.Errorf("protocol: worker %d: unexpected message type %d", m.id, msg.Type())
	}
	return m.HandlePacket(msg.Dense, now, eb)
}

// HandlePacket consumes one aggregator result, appending the next round's
// packets (if any) to eb. Stale or duplicate results are filtered (counted
// in StaleResults) with no emits; protocol violations return an error.
func (m *WorkerMachine) HandlePacket(p *wire.Packet, now time.Duration, eb *EmitBuf) error {
	if p.Type != wire.TypeResult {
		return fmt.Errorf("protocol: worker %d: unexpected message type %d", m.id, p.Type)
	}
	if p.TensorID != m.tid {
		m.stats.StaleResults++
		return nil // stale result from a previous tensor
	}
	if int(p.Slot) >= len(m.streams) || m.streams[p.Slot] == nil {
		return fmt.Errorf("protocol: worker %d: result for unknown stream %d", m.id, p.Slot)
	}
	st := m.streams[p.Slot]
	if st.done {
		m.stats.StaleResults++
		return nil // duplicate final result
	}
	if !m.cfg.Reliable && p.Version != st.ver {
		m.stats.StaleResults++
		return nil // duplicate of an already-processed round
	}
	return m.processResult(st, p, now, eb)
}

// processResult applies a result to the local view and builds the next
// round: contribute every column whose requested next block equals our
// local next non-zero block.
func (m *WorkerMachine) processResult(st *wStream, p *wire.Packet, now time.Duration, eb *EmitBuf) error {
	m.stats.ResultsRecvd++
	for _, b := range p.Blocks {
		m.view.SetBlock(int(b.Index), b.Data)
	}
	if p.Done() {
		st.done = true
		st.last = nil
		m.active--
		return nil
	}

	resp := st.shell()
	resp.Type = wire.TypeData
	resp.Version = st.ver + 1 // round counter, wraps mod 256
	resp.DType = m.dtype()
	resp.Slot = p.Slot
	resp.WID = uint16(m.id)
	resp.TensorID = m.tid
	resp.BlockSize = uint32(m.cfg.BlockSize)
	st.ver = resp.Version
	contributes := false
	for c := 0; c < st.cols; c++ {
		req := p.Nexts[c]
		if wire.IsInf(req) {
			resp.Nexts[c] = wire.Inf(c)
			continue
		}
		if st.next[c] >= 0 && int(req) == st.next[c] {
			blk := st.next[c]
			resp.Blocks = append(resp.Blocks, wire.Block{
				Index: uint32(blk),
				Data:  m.view.Block(blk),
			})
			st.next[c] = m.advanceNext(st, c, blk)
			contributes = true
			m.stats.BlocksSent++
		} else if st.next[c] >= 0 && int(req) > st.next[c] {
			return fmt.Errorf("protocol: worker %d stream %d col %d: aggregator requested %d past local next %d",
				m.id, st.idx, c, req, st.next[c])
		}
		resp.Nexts[c] = NextOffsetWire(st.next[c], c)
	}
	if m.cfg.Reliable {
		if contributes {
			m.send(st, resp, now, eb)
			return nil
		}
		// Silent round: the aggregator advances without us (Algorithm 1's
		// "otherwise the worker awaits a further packet").
		st.last = nil
		return nil
	}
	// Unreliable mode: always respond, with an empty ack if we have no
	// block to contribute (Algorithm 2 lines 18-21).
	m.send(st, resp, now, eb)
	return nil
}

// HandleTimeout retransmits every stream whose loss-detection timer has
// expired at time now, backing the timer off exponentially with jitter.
// Retransmissions are appended to eb; it returns an error when a stream
// exhausts MaxRetries.
func (m *WorkerMachine) HandleTimeout(now time.Duration, eb *EmitBuf) error {
	if m.cfg.Reliable {
		return nil
	}
	for _, st := range m.streams {
		if st == nil || st.done || st.last == nil {
			continue
		}
		if now-st.sentAt < st.timeout {
			continue
		}
		if m.cfg.MaxRetries > 0 && st.retries >= m.cfg.MaxRetries {
			return fmt.Errorf("protocol: worker %d stream %d: no response after %d retransmissions",
				m.id, st.idx, st.retries)
		}
		st.retries++
		st.sentAt = now
		m.stats.PacketsSent++
		m.stats.Retransmits++
		m.stats.BytesSent += int64(st.lastSize)
		obs.EmitSlot(obs.EvRetransmit, int32(m.id), m.tid, uint16(st.idx), st.last.Version, int64(st.lastSize))
		eb.Append(Emit{Dst: m.cfg.AggregatorFor(st.idx), Packet: st.last, Size: st.lastSize, Retransmit: true})
		m.backoff(st)
	}
	return nil
}

// NextTimeout returns the earliest pending retransmission deadline, if
// any. Drivers arm their timer (or schedule a virtual-time event) for it;
// a wakeup earlier than every deadline is harmless (HandleTimeout
// re-checks). Reliable mode never requests timers.
func (m *WorkerMachine) NextTimeout() (time.Duration, bool) {
	if m.cfg.Reliable {
		return 0, false
	}
	var earliest time.Duration
	ok := false
	for _, st := range m.streams {
		if st == nil || st.done || st.last == nil {
			continue
		}
		d := st.sentAt + st.timeout
		if !ok || d < earliest {
			earliest, ok = d, true
		}
	}
	return earliest, ok
}

// backoff grows a stream's retransmission timeout exponentially with
// jitter, up to the configured ceiling, after a timer expiry. A fixed
// timer under sustained loss retransmits into the same congested or
// partitioned link at full rate; backing off (and jittering, so workers
// that lost the same multicast do not resynchronize) is the standard
// hardening the paper's fixed-timer description leaves out.
func (m *WorkerMachine) backoff(st *wStream) {
	next := time.Duration(float64(st.timeout) * m.cfg.RetransmitBackoff)
	if next > m.cfg.RetransmitCeiling {
		next = m.cfg.RetransmitCeiling
	}
	if j := m.cfg.RetransmitJitter; j > 0 {
		next = time.Duration(float64(next) * m.jitterFactor(j))
	}
	if next < m.cfg.RetransmitTimeout {
		next = m.cfg.RetransmitTimeout
	}
	if next > st.timeout {
		m.stats.Backoffs++
	}
	st.timeout = next
}

// jitterFactor draws the next retransmission jitter factor, uniform in
// [1-j, 1+j), from the machine's splitmix64 stream: seeded by (worker,
// tensor) in init, so every run of a job draws the same factors, and a
// reseed is one store where a math/rand source reseeds a 607-word table.
func (m *WorkerMachine) jitterFactor(j float64) float64 {
	m.jitter += 0x9e3779b97f4a7c15
	z := m.jitter
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53) // [0, 1)
	return 1 + j*(2*u-1)
}

// firstTimeout is a fresh packet's loss-detection timeout, skewed by a
// 64th of RetransmitTimeout per worker ID (mod 64) so that the workers of
// a stream stalled by one loss expire one at a time, not at once as with
// Algorithm 2's fixed timer; once the repair has gone, the result reaches
// the rest before their timers fire (DESIGN §4).
func (m *WorkerMachine) firstTimeout() time.Duration {
	rt := m.cfg.RetransmitTimeout
	return rt + time.Duration(m.id%64)*rt/64
}

// advanceNext moves a column's next-non-zero pointer strictly past blk
// and accounts for the look-ahead: every zero block the scan passes over
// is skipped exactly once per worker, which is the paper's bandwidth
// saving and the quantity the timeline analyzer's skip ratio measures.
func (m *WorkerMachine) advanceNext(st *wStream, c, blk int) int {
	next := NextNonZeroInColumn(m.nonZero, blk, st.lo, st.hi, c, st.cols)
	var skipped int
	if next >= 0 {
		skipped = (next-blk)/st.cols - 1
	} else {
		skipped = (st.hi - 1 - blk) / st.cols
	}
	if skipped > 0 {
		m.stats.BlocksSkipped += int64(skipped)
		obs.EmitSlot(obs.EvLookaheadSkip, int32(m.id), m.tid, uint16(st.idx), st.ver, int64(skipped))
	}
	return next
}

// send records p as the stream's outstanding packet and appends its emit
// to eb.
func (m *WorkerMachine) send(st *wStream, p *wire.Packet, now time.Duration, eb *EmitBuf) {
	st.last = p
	st.lastSize = wire.EncodedPacketSize(p)
	st.sentAt = now
	st.retries = 0
	st.timeout = m.firstTimeout() // fresh packet: reset backoff
	m.stats.PacketsSent++
	m.stats.BytesSent += int64(st.lastSize)
	if !m.cfg.Reliable && len(p.Blocks) == 0 {
		m.stats.AcksSent++
	}
	obs.EmitSlot(obs.EvSlotIssue, int32(m.id), m.tid, uint16(st.idx), p.Version, int64(len(p.Blocks)))
	eb.Append(Emit{Dst: m.cfg.AggregatorFor(st.idx), Packet: p, Size: st.lastSize})
}
