package protocol

import (
	"fmt"
	"math"

	"omnireduce/internal/obs"
	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// AggStats counts aggregator-side protocol activity. The recovery
// counters distinguish the three fates of a non-live packet: a duplicate
// of the current round (filtered), a packet from an old round (answered
// with a replay when possible), and a packet for a tensor that finished
// long enough ago that its archived result was evicted (dropped).
type AggStats struct {
	PacketsRecvd     int64
	BlocksAggregated int64
	RoundsCompleted  int64
	ResultsSent      int64
	Replays          int64 // unicast result retransmissions (Algorithm 2)
	DupsFiltered     int64 // same-round duplicates discarded
	StaleRounds      int64 // packets arriving for an already-concluded round
	StaleFinished    int64 // packets for finished tensors past the archive
	FastForwards     int64 // rounds skipped resyncing after a checkpoint restore
}

// Add folds o into s field for field.
func (s *AggStats) Add(o AggStats) {
	s.PacketsRecvd += o.PacketsRecvd
	s.BlocksAggregated += o.BlocksAggregated
	s.RoundsCompleted += o.RoundsCompleted
	s.ResultsSent += o.ResultsSent
	s.Replays += o.Replays
	s.DupsFiltered += o.DupsFiltered
	s.StaleRounds += o.StaleRounds
	s.StaleFinished += o.StaleFinished
	s.FastForwards += o.FastForwards
}

// slotEnt is one live tensor's aggregation state within a slot bucket.
type slotEnt struct {
	tid uint32
	sl  *aggSlot
}

// archived is a finished tensor's final result retained for replay: a deep
// copy in storage of its own (live result packets are recycled shells),
// refilled in place when the entry is evicted for a newer tensor.
type archived struct {
	pkt   wire.Packet
	arena []float32
	size  int
}

// AggregatorMachine is one aggregator node's protocol state: it owns the
// slots of every stream mapped to it and runs the block aggregation of
// Algorithms 1 and 2 plus the key-value aggregation of Algorithm 3.
//
// The machine is purely event-driven: HandlePacket consumes one decoded
// inbound message and appends the messages to transmit to the caller's
// EmitBuf. It requests no timers (the aggregator side of the protocol is
// passive). Methods must not be called concurrently.
//
// All per-tensor round state (slots, accumulators, result shells) is
// free-listed inside the machine and recycled across tensors, so the
// steady state aggregates and emits without allocating. The free-list
// traffic is reported through the obs pool counters (protocol_agg_slots,
// protocol_sparse_slots).
type AggregatorMachine struct {
	cfg Config
	// localID is stamped as the WID of emitted results (the aggregator
	// shard identity, matching the live driver's transport node ID).
	localID int

	// table is the slot-indexed live-tensor table: table[slot] is the
	// bucket of tensors currently aggregating on that stream slot (several
	// tensors may be in flight concurrently under bucket pipelining, but
	// the bucket stays tiny — it is bounded by the job's in-flight window,
	// so a linear scan beats hashing a composite key).
	table []([]slotEnt)
	live  int // total live dense entries across all buckets

	sparse map[uint32]*sparseAgg

	// slotFree / sparseFree recycle retired per-tensor state.
	slotFree   []*aggSlot
	sparseFree []*sparseAgg

	// archive keeps, per slot, the final result of recently finished
	// tensors so a lost final multicast can be replayed to a
	// retransmitting worker even after the slot moved on (unreliable
	// mode). Bounded to the ArchiveDepth most recent tensors per
	// (slot, namespace), so one busy job cannot evict a quiet job's
	// replayable results; a bucket that small is scanned, not hashed.
	archive [][]*archived
	// finished tracks exactly which tensor IDs have completed per
	// (slot, tid-namespace) (compactly: a completed prefix plus
	// out-of-order exceptions over the per-job sequence), so stale
	// packets cannot resurrect zombie slot state after their archive
	// entry was evicted. Concurrent tensors may finish out of order, so a
	// simple high-water mark would wrongly drop bootstraps of
	// lower-numbered tensors still in flight; and sequences are dense
	// only within a job, so the tracker is per namespace.
	finished map[uint16]map[uint32]*finishedTracker

	// SlotOpened/SlotFinished, when set, are called with the tensor ID
	// each time per-tensor aggregation state is created on a slot and
	// each time it concludes (dense: one call per (slot, tensor) pair;
	// sparse: one per tensor). They let a multi-tenant driver refcount
	// in-flight operations for admission control and graceful drain
	// without scraping machine internals. The callbacks run synchronously
	// inside HandlePacket and must not call back into the machine; the
	// machine stays pure — no goroutines, clocks, or I/O — and substrates
	// that leave them nil (the simulator) are unaffected.
	SlotOpened   func(tensorID uint32)
	SlotFinished func(tensorID uint32)

	stats AggStats
}

// NewAggregatorMachine creates an aggregator machine; localID is the node
// ID stamped on emitted results.
func NewAggregatorMachine(cfg Config, localID int) *AggregatorMachine {
	return &AggregatorMachine{
		cfg:      cfg.WithDefaults(),
		localID:  localID,
		sparse:   make(map[uint32]*sparseAgg),
		finished: make(map[uint16]map[uint32]*finishedTracker),
	}
}

// Presize reserves the slot table for `slots` stream slots with room for
// `perSlot` concurrently live tensors each, so the steady state never
// grows the table. Drivers size it from their registry (stream count ×
// in-flight window); calling it is optional and never shrinks.
func (m *AggregatorMachine) Presize(slots, perSlot int) {
	if perSlot < 1 {
		perSlot = 1
	}
	for len(m.table) < slots {
		m.table = append(m.table, nil)
	}
	for i := range m.table {
		if m.table[i] == nil {
			m.table[i] = make([]slotEnt, 0, perSlot)
		}
	}
}

// ActiveSlots reports how many per-tensor aggregation states (dense slot
// entries plus sparse tensors) are currently live. A draining driver
// polls this alongside its own admission refcounts to decide when all
// in-flight rounds have concluded.
func (m *AggregatorMachine) ActiveSlots() int { return m.live + len(m.sparse) }

// Release returns every live slot's state to the machine's free lists and
// balances the obs pool counters. Drivers call it when retiring a machine
// (tenant teardown, generation bump); the machine must not be used
// afterwards except to be garbage collected.
func (m *AggregatorMachine) Release() {
	for si := range m.table {
		for _, e := range m.table[si] {
			aggSlotPuts.Add(1)
			obs.Emit(obs.EvMachinePoolPut, e.tid, 1)
		}
		m.table[si] = nil
	}
	m.live = 0
	for tid := range m.sparse {
		sparseSlotPuts.Add(1)
		obs.Emit(obs.EvMachinePoolPut, tid, 2)
		delete(m.sparse, tid)
	}
}

// Stats returns a copy of the machine's traffic counters.
func (m *AggregatorMachine) Stats() AggStats { return m.stats }

// HandlePacket processes one decoded inbound message (dense data or
// sparse key-value) and appends the messages to transmit to eb. Emitted
// result packets are reusable shells under the Emit ownership contract:
// the caller must consume them before the next HandlePacket call. Within
// one call, a multicast result is pointer-equal across its fan-out, so
// drivers may encode once and send N times. Only worker data of either
// format is accepted: any other message (a result, an empty Msg) is
// refused with an error and changes nothing.
func (m *AggregatorMachine) HandlePacket(msg Msg, eb *EmitBuf) error {
	switch {
	case msg.Dense != nil && msg.Dense.Type == wire.TypeData:
		m.stats.PacketsRecvd++
		return m.handleDense(msg.Dense, eb)
	case msg.Sparse != nil && msg.Sparse.Type == wire.TypeSparseData:
		m.stats.PacketsRecvd++
		return m.handleSparse(msg.Sparse, eb)
	default:
		return fmt.Errorf("protocol: aggregator: unexpected message type %d", msg.Type())
	}
}

// aggSlot is the per-stream aggregation state. Column arrays are indexed
// by the fusion column (§3.2). Retired slots park on the machine's free
// list with their arrays intact, so a recycled slot re-arms without
// allocating.
//
// Loss recovery generalizes Algorithm 2's two-way slot versioning to a
// mod-256 round counter carried in the packet's Version byte: the paper's
// single version bit cannot distinguish a retransmitted duplicate delayed
// by two rounds from a current-round packet (tolerable on the paper's
// single-switch fabric, not under arbitrary reordering), while a byte
// gives 256 rounds of reordering slack. A packet for an older round is
// answered with the previous round's result, which is exactly what a
// straggling worker is missing.
type aggSlot struct {
	tensorID  uint32
	blockSize int
	cols      int
	dtype     uint8

	// cur[c] is the block index currently being aggregated for column c
	// (nextUnknown until a contributed block reveals it, nextDone when the
	// column is finished).
	//
	// Round-0 contract: workers bootstrap with a packet that always carries
	// Nexts but attaches a column's first block only if it is non-zero
	// (WorkerMachine.Start). A column nobody contributed to therefore
	// concludes round 0 still at nextUnknown: merge never ran for it, its
	// accumulator is empty, finishRound omits it from the result (workers
	// keep their own zeros) and moves cur to the global minimum next. The
	// round still closes only when every worker's packet arrived — in
	// reliable mode because minOf(nexts[c]) stays nextUnknown until then,
	// in versioned mode by count — so a payload-free bootstrap is a full
	// participant. The same state arises after a fast-forward, whose
	// finished columns restart at nextUnknown.
	cur []int64

	// nexts[c][wid] is the latest "next non-zero block" report from each
	// worker (reliable mode: persists across rounds because
	// non-contributors stay silent).
	nexts [][]int64

	// Current-round aggregation state.
	acc         []accum // per column
	minNext     []int64 // per-round min next (unreliable mode)
	mins        []int64 // scratch: the concluded round's global nexts
	seen        []bool
	count       int
	round       uint8 // current round number mod 256 (unreliable mode)
	lastRes     *wire.Packet
	lastResSize int
	finished    bool

	// shells are the slot's two reusable result packets, flipped each
	// finished round: the shell emitted for round r is only rebuilt at
	// round r+2, after the driver consumed it (and after any stale-round
	// replay of it went out). Their block payloads are the columns'
	// accumulators themselves (accum.take), on the same two-round lifetime.
	shells [2]wire.Packet
	flip   int
}

// resizeI64 returns s with length n, reusing capacity; contents are
// unspecified (callers refill).
func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func (m *AggregatorMachine) slotAt(slot uint16, tid uint32) *aggSlot {
	if int(slot) >= len(m.table) {
		return nil
	}
	for _, e := range m.table[slot] {
		if e.tid == tid {
			return e.sl
		}
	}
	return nil
}

func (m *AggregatorMachine) putSlot(slot uint16, tid uint32, sl *aggSlot) {
	for int(slot) >= len(m.table) {
		m.table = append(m.table, nil)
	}
	m.table[slot] = append(m.table[slot], slotEnt{tid: tid, sl: sl})
	m.live++
}

// dropSlot removes (slot, tid) from the table (swap-remove within the
// bucket) and returns its state, or nil if absent.
func (m *AggregatorMachine) dropSlot(slot uint16, tid uint32) *aggSlot {
	b := m.table[slot]
	for i, e := range b {
		if e.tid == tid {
			last := len(b) - 1
			b[i] = b[last]
			b[last] = slotEnt{}
			m.table[slot] = b[:last]
			m.live--
			return e.sl
		}
	}
	return nil
}

// freeSlot parks a retired slot on the free list. Its shells may still be
// referenced by emits pending consumption; they are only rewritten after
// the slot is re-armed AND finishes a round, which is at least one
// machine call later — past the Emit contract's consumption deadline.
func (m *AggregatorMachine) freeSlot(sl *aggSlot) {
	aggSlotPuts.Add(1)
	obs.Emit(obs.EvMachinePoolPut, sl.tensorID, 1)
	sl.lastRes = nil
	m.slotFree = append(m.slotFree, sl)
}

// newSlot takes a free-listed (or fresh) slot and arms it for p's tensor.
func (m *AggregatorMachine) newSlot(p *wire.Packet) *aggSlot {
	aggSlotGets.Add(1)
	obs.Emit(obs.EvMachinePoolGet, p.TensorID, 1)
	var s *aggSlot
	if n := len(m.slotFree); n > 0 {
		s = m.slotFree[n-1]
		m.slotFree[n-1] = nil
		m.slotFree = m.slotFree[:n-1]
	} else {
		s = &aggSlot{}
	}
	s.arm(m.cfg, p)
	return s
}

// arm resets the slot to round 0 of p's tensor with p's geometry, keeping
// every backing array.
func (s *aggSlot) arm(cfg Config, p *wire.Packet) {
	cols := p.Cols()
	s.tensorID = p.TensorID
	s.blockSize = int(p.BlockSize)
	s.cols = cols
	s.dtype = p.DType
	s.count = 0
	s.round = 0
	s.lastRes = nil
	s.lastResSize = 0
	s.finished = false
	s.cur = resizeI64(s.cur, cols)
	s.minNext = resizeI64(s.minNext, cols)
	s.mins = resizeI64(s.mins, cols)
	for c := 0; c < cols; c++ {
		s.cur[c] = nextUnknown
		s.minNext[c] = nextDone
	}
	for cap(s.nexts) < cols {
		s.nexts = append(s.nexts[:cap(s.nexts)], nil)
	}
	s.nexts = s.nexts[:cols]
	for c := range s.nexts {
		s.nexts[c] = resizeI64(s.nexts[c], cfg.Workers)
		for w := range s.nexts[c] {
			s.nexts[c][w] = nextUnknown
		}
	}
	for cap(s.acc) < cols {
		s.acc = append(s.acc[:cap(s.acc)], accum{})
	}
	s.acc = s.acc[:cols]
	for c := range s.acc {
		s.acc[c].init(cfg)
	}
	if cap(s.seen) < cfg.Workers {
		s.seen = make([]bool, cfg.Workers)
	}
	s.seen = s.seen[:cfg.Workers]
	for i := range s.seen {
		s.seen[i] = false
	}
}

func (m *AggregatorMachine) handleDense(p *wire.Packet, eb *EmitBuf) error {
	if int(p.WID) >= m.cfg.Workers {
		return fmt.Errorf("protocol: packet from unknown worker %d", p.WID)
	}
	sl := m.slotAt(p.Slot, p.TensorID)
	if sl == nil {
		if ar := m.archived(p.Slot, p.TensorID); ar != nil {
			// Stale retransmission for a finished tensor: replay the
			// final result to the sender (Algorithm 2 replay path).
			m.stats.Replays++
			eb.Append(Emit{Dst: int(p.WID), Packet: &ar.pkt, Size: ar.size})
			return nil
		}
		if m.isFinished(p.Slot, p.TensorID) {
			// A finished tensor already evicted from the archive: cannot
			// replay, but must not resurrect state either.
			m.stats.StaleFinished++
			return nil
		}
		sl = m.newSlot(p)
		m.putSlot(p.Slot, p.TensorID, sl)
		if m.SlotOpened != nil {
			m.SlotOpened(p.TensorID)
		}
	}
	if p.Cols() != sl.cols || int(p.BlockSize) != sl.blockSize || p.DType != sl.dtype {
		return fmt.Errorf("protocol: slot %d: inconsistent geometry from worker %d", p.Slot, p.WID)
	}

	if m.cfg.Reliable {
		return m.processReliable(p, sl, eb)
	}
	return m.processVersioned(p, sl, eb)
}

// finishedTracker records a set of finished operation sequences compactly:
// every seq <= upTo has finished, plus the out-of-order exceptions above
// it. Sequence numbers are allocated densely (1, 2, 3, ...) within a job's
// tid namespace, so the exception set stays bounded by the number of that
// job's concurrent operations. (Full tensor IDs are dense only per
// namespace, hence one tracker per (slot, namespace).)
type finishedTracker struct {
	upTo   uint32
	except map[uint32]bool
}

func (f *finishedTracker) add(seq uint32) {
	if seq <= f.upTo {
		return
	}
	if f.except == nil {
		f.except = make(map[uint32]bool)
	}
	f.except[seq] = true
	f.absorb()
}

// absorb extends the finished prefix over the exceptions adjacent to it.
func (f *finishedTracker) absorb() {
	for f.except[f.upTo+1] {
		delete(f.except, f.upTo+1)
		f.upTo++
	}
}

func (f *finishedTracker) has(seq uint32) bool {
	return seq <= f.upTo || f.except[seq]
}

// floor records every seq <= upTo as finished and reports whether that
// was news.
func (f *finishedTracker) floor(upTo uint32) bool {
	if upTo <= f.upTo {
		return false
	}
	f.upTo = upTo
	for seq := range f.except {
		if seq <= upTo {
			delete(f.except, seq)
		}
	}
	f.absorb()
	return true
}

// isFinished reports whether tensorID already completed on this slot.
func (m *AggregatorMachine) isFinished(slot uint16, tensorID uint32) bool {
	f := m.finished[slot][TidNamespace(tensorID)]
	return f != nil && f.has(TidSeq(tensorID))
}

func (m *AggregatorMachine) markFinished(slot uint16, tensorID uint32) {
	m.tracker(slot, TidNamespace(tensorID)).add(TidSeq(tensorID))
}

// tracker returns (slot, ns)'s finished-sequence tracker, created on first
// use.
func (m *AggregatorMachine) tracker(slot uint16, ns uint32) *finishedTracker {
	fm := m.finished[slot]
	if fm == nil {
		fm = make(map[uint32]*finishedTracker)
		m.finished[slot] = fm
	}
	f := fm[ns]
	if f == nil {
		f = &finishedTracker{}
		fm[ns] = f
	}
	return f
}

// processReliable implements Algorithm 1 (+ Block Fusion): silent workers,
// min-based completion.
func (m *AggregatorMachine) processReliable(p *wire.Packet, sl *aggSlot, eb *EmitBuf) error {
	wid := int(p.WID)
	if err := sl.merge(p, wid); err != nil {
		return err
	}
	for c := 0; c < sl.cols; c++ {
		sl.nexts[c][wid] = decodeNext(p.Nexts[c])
	}
	// Completion: every column's current block is strictly below the
	// global minimum next (line 22 of Algorithm 1, per column). The mins
	// double as the concluded round's global nexts for finishRound.
	for c := 0; c < sl.cols; c++ {
		if sl.cur[c] == nextDone {
			sl.mins[c] = nextDone
			continue
		}
		min := minOf(sl.nexts[c])
		if min == nextUnknown || min <= sl.cur[c] {
			return nil // column still collecting
		}
		// An uninitialized column (cur == nextUnknown) completes only
		// once every worker reported, which min > nextUnknown implies.
		sl.mins[c] = min
	}
	concluded := sl.round
	sl.round++
	return m.finishRound(sl, p.Slot, concluded, eb)
}

// processVersioned implements Algorithm 2 with the round-counter
// extension: every worker sends exactly one packet (data or empty ack)
// per round; duplicates within the current round are ignored; packets for
// earlier rounds indicate the sender missed a result, which is replayed
// unicast (the paper's lines 47-49 generalized).
func (m *AggregatorMachine) processVersioned(p *wire.Packet, sl *aggSlot, eb *EmitBuf) error {
	wid := int(p.WID)
	if p.Version == sl.round+1 {
		// The whole worker set is one round ahead of us: this aggregator
		// was restored from a checkpoint taken before the last result
		// went out (a failover that lost the final checkpoint delta).
		// Round sl.round's result already lives in the workers' output
		// views — a worker only advances to round r+1 after applying
		// result r — so the round is globally concluded and we fast-
		// forward: rearm the slot for the new round and take the cursor
		// positions from the incoming packets (all workers agree on them,
		// having applied the same result). Only ever one round: workers
		// cannot reach r+2 without a result for r+1, which only we issue.
		m.stats.FastForwards++
		for c := 0; c < sl.cols; c++ {
			sl.cur[c] = nextUnknown
			sl.minNext[c] = nextDone
			for w := range sl.nexts[c] {
				sl.nexts[c][w] = nextUnknown
			}
			sl.acc[c].reset()
		}
		for i := range sl.seen {
			sl.seen[i] = false
		}
		sl.count = 0
		sl.round = p.Version
	}
	if p.Version != sl.round {
		// An old-round packet (retransmission or reordered duplicate):
		// the sender is at most one result behind a live round, and that
		// missing result is lastRes. Deeper-stale duplicates receive a
		// result their worker will discard by version mismatch.
		m.stats.StaleRounds++
		if sl.lastRes != nil {
			m.stats.Replays++
			eb.Append(Emit{Dst: wid, Packet: sl.lastRes, Size: sl.lastResSize})
		}
		return nil
	}
	if sl.seen[wid] {
		m.stats.DupsFiltered++
		return nil // duplicate within the live round; original counted
	}
	sl.seen[wid] = true
	sl.count++
	if err := sl.merge(p, wid); err != nil {
		return err
	}
	for c := 0; c < sl.cols; c++ {
		n := decodeNext(p.Nexts[c])
		if n < sl.minNext[c] {
			sl.minNext[c] = n
		}
	}
	if sl.count < m.cfg.Workers {
		return nil
	}
	sl.mins = append(sl.mins[:0], sl.minNext...)
	// Advance the round before emitting so the result carries the round
	// it concludes while new state is clean for the next one.
	sl.count = 0
	for i := range sl.seen {
		sl.seen[i] = false
	}
	concluded := sl.round
	sl.round++
	return m.finishRound(sl, p.Slot, concluded, eb)
}

// merge accumulates the packet's blocks into the slot's accumulators and
// initializes column cursors from the block indices.
func (sl *aggSlot) merge(p *wire.Packet, wid int) error {
	for _, b := range p.Blocks {
		c := ColOf(b.Index, sl.cols)
		if sl.cur[c] == nextUnknown {
			sl.cur[c] = int64(b.Index)
		}
		if int64(b.Index) != sl.cur[c] {
			return fmt.Errorf("protocol: worker %d sent block %d for column %d, expected %d",
				wid, b.Index, c, sl.cur[c])
		}
		sl.acc[c].add(wid, b.Data)
	}
	return nil
}

// finishRound emits the multicast result for a completed round into eb
// and advances or finishes the slot. sl.mins[c] holds the new global next
// for column c; round is the concluded round's number. The result packet
// is the slot's flipped shell, and each block's payload is its column's
// accumulator, handed over rather than copied — both consumed by the
// driver before they are rewritten two rounds out.
func (m *AggregatorMachine) finishRound(sl *aggSlot, slot uint16, round uint8, eb *EmitBuf) error {
	sl.flip ^= 1
	res := &sl.shells[sl.flip]
	if cap(res.Nexts) < sl.cols {
		res.Nexts = make([]uint32, sl.cols)
	}
	res.Nexts = res.Nexts[:sl.cols]
	res.Blocks = res.Blocks[:0]
	res.Type = wire.TypeResult
	res.Version = round
	res.DType = sl.dtype
	res.Slot = slot
	res.WID = uint16(m.localID & 0xFFFF)
	res.TensorID = sl.tensorID
	res.BlockSize = uint32(sl.blockSize)
	allDone := true
	for c := 0; c < sl.cols; c++ {
		if sl.cur[c] != nextUnknown && sl.cur[c] != nextDone {
			res.Blocks = append(res.Blocks, wire.Block{Index: uint32(sl.cur[c]), Data: sl.acc[c].take()})
		}
		min := sl.mins[c]
		if sl.cur[c] == nextDone {
			min = nextDone
		}
		if min == nextDone {
			res.Nexts[c] = wire.Inf(c)
			sl.cur[c] = nextDone
		} else {
			res.Nexts[c] = uint32(min)
			sl.cur[c] = min
			allDone = false
		}
		sl.acc[c].reset()
		sl.minNext[c] = nextDone
	}
	size := wire.EncodedPacketSize(res)
	sl.lastRes = res
	sl.lastResSize = size
	if allDone {
		sl.finished = true
		m.archiveResult(slot, res, size)
		if freed := m.dropSlot(slot, sl.tensorID); freed != nil {
			m.freeSlot(freed)
		}
		if m.SlotFinished != nil {
			m.SlotFinished(sl.tensorID)
		}
	}
	m.stats.RoundsCompleted++
	m.stats.BlocksAggregated += int64(len(res.Blocks))
	obs.EmitSlot(obs.EvSlotComplete, int32(m.localID), sl.tensorID, slot, round, int64(len(res.Blocks)))
	// What a successor can resume from (Emit.Commit): every concluded
	// round in versioned mode, a slot's final result in reliable mode.
	commit := !m.cfg.Reliable || allDone
	for w := 0; w < m.cfg.Workers; w++ {
		eb.Append(Emit{Dst: w, Packet: res, Size: size, Commit: commit})
		m.stats.ResultsSent++
	}
	return nil
}

// ArchiveDepth bounds the per-(slot, namespace) final-result archive; it
// must exceed the number of concurrently outstanding tensors per job so a
// straggler can always recover a lost final multicast. Eviction is scoped
// to the finishing tensor's namespace: a busy job churning through
// results must not evict a quiet job's still-replayable ones. AdoptResult
// leans on the same bound to tell which adopted tensors have concluded.
const ArchiveDepth = 16

// archived returns the archive entry of tensorID on slot, or nil.
func (m *AggregatorMachine) archived(slot uint16, tensorID uint32) *archived {
	if int(slot) >= len(m.archive) {
		return nil
	}
	for _, ar := range m.archive[slot] {
		if ar.pkt.TensorID == tensorID {
			return ar
		}
	}
	return nil
}

// archiveResult retains a copy of res, a tensor's final result, and marks
// the tensor finished. Once its namespace holds ArchiveDepth entries on the
// slot, the one with the smallest sequence is refilled in place, so a warm
// archive takes a result without allocating.
func (m *AggregatorMachine) archiveResult(slot uint16, res *wire.Packet, size int) {
	for int(slot) >= len(m.archive) {
		m.archive = append(m.archive, nil)
	}
	ns := TidNamespace(res.TensorID)
	var ar *archived
	inNs := 0
	for _, e := range m.archive[slot] {
		if TidNamespace(e.pkt.TensorID) != ns {
			continue
		}
		inNs++
		if ar == nil || e.pkt.TensorID < ar.pkt.TensorID {
			ar = e
		}
	}
	if inNs < ArchiveDepth {
		ar = &archived{}
		m.archive[slot] = append(m.archive[slot], ar)
	}
	ar.arena = wire.CopyPacketInto(&ar.pkt, ar.arena, res)
	ar.size = size
	m.markFinished(slot, res.TensorID)
}

// Handing an aggregator's position to a successor (DESIGN §12). Mid-
// collective failover exists in versioned mode only, and there everything a
// successor cannot get back from the workers — each replays its outstanding
// packet on rebind, and the fast-forward in processVersioned recovers a
// one-round gap — is, per slot, the last result and its round number, and
// per finished tensor the final result: the packets the dead machine
// multicast. A driver mirrors every Emit.Commit result to its standbys, and
// a successor is built from those packets and nothing else: every concluded
// round in versioned mode, only final results in reliable mode, which hands
// over between collectives only and there needs the finals alone. Not
// carried, deliberately: a half-collected round (the workers resend it),
// Algorithm 1's per-worker next table and its non-final results (useless to
// a successor without that table), Algorithm 3 state, and the dead
// machine's counters.

// AdoptResult loads one result a predecessor committed, as if this machine
// had concluded that round itself: a non-final result leaves its slot at
// round Version+1 with the column cursors the result announces, nothing
// collected yet, and the result itself as the replay for stragglers; a
// final one goes to the replay archive and the finished set. Results may be
// adopted in any order and more than once: one that is not newer than what
// the slot holds, or belongs to a finished tensor, is ignored — a replayed
// frame never rolls a slot back. So is one this machine could not have
// emitted and so could not replay, which is what bounds a standby's network
// input: not a TypeResult, not 1 to wire.MaxCols columns of the configured
// block size, not an operation (sequence 0 of a namespace is its control
// channel), blocks not in ascending column order (AppendPacket panics on
// that) or longer than a block (a worker copies block data over its tensor
// unchecked). It reports whether state changed.
//
// The packet is copied; slots opened and concluded here fire SlotOpened and
// SlotFinished like locally served ones, so a driver's in-flight accounting
// tracks handed-over work.
func (m *AggregatorMachine) AdoptResult(p *wire.Packet) bool {
	cols := p.Cols()
	if p.Type != wire.TypeResult || cols == 0 || cols > wire.MaxCols || int(p.BlockSize) != m.cfg.BlockSize ||
		TidSeq(p.TensorID) == 0 || m.isFinished(p.Slot, p.TensorID) {
		return false
	}
	prev := -1
	for _, b := range p.Blocks {
		c := ColOf(b.Index, cols)
		if c <= prev || len(b.Data) > m.cfg.BlockSize {
			return false
		}
		prev = c
	}
	final := p.Done()
	sl := m.slotAt(p.Slot, p.TensorID)
	if sl != nil && !final && int8(p.Version+1-sl.round) <= 0 {
		return false
	}
	switch {
	case final:
		if sl != nil {
			m.conclude(p.Slot, sl)
		}
		m.archiveResult(p.Slot, p, wire.EncodedPacketSize(p))
	case sl == nil:
		sl = m.newSlot(p)
		m.putSlot(p.Slot, p.TensorID, sl)
		if m.SlotOpened != nil {
			m.SlotOpened(p.TensorID)
		}
	default:
		sl.arm(m.cfg, p)
	}
	if !final {
		sl.round = p.Version + 1
		for c, n := range p.Nexts {
			sl.cur[c] = decodeNext(n)
		}
		// The copy goes where finishRound would have left the result: the
		// flipped shell, with each block in its column's accumulator.
		sl.flip ^= 1
		res := &sl.shells[sl.flip]
		nexts, blocks := res.Nexts[:0], res.Blocks[:0]
		*res = *p
		res.Nexts = append(nexts, p.Nexts...)
		for _, b := range p.Blocks {
			blocks = append(blocks, wire.Block{Index: b.Index, Data: sl.acc[ColOf(b.Index, cols)].adopt(b.Data)})
		}
		res.Blocks = blocks
		sl.lastRes = res
		sl.lastResSize = wire.EncodedPacketSize(p)
	}
	// The archive is sized on at most ArchiveDepth tensors of a namespace
	// being outstanding on a slot. By the same bound, a tensor that far
	// behind one the predecessor was serving has concluded, and if it is
	// still open here its final result was mirrored and lost (a standby on
	// a lossy link): without this, each such loss would pin a slot and an
	// exception in the finished set for good. It is also what makes the
	// finished set follow from the results alone.
	ns, seq := TidNamespace(p.TensorID), TidSeq(p.TensorID)
	if seq > ArchiveDepth && m.tracker(p.Slot, ns).floor(seq-ArchiveDepth) && int(p.Slot) < len(m.table) {
		b := m.table[p.Slot]
		for i := len(b) - 1; i >= 0; i-- {
			if TidNamespace(b[i].tid) == ns && m.isFinished(p.Slot, b[i].tid) {
				m.conclude(p.Slot, b[i].sl)
			}
		}
	}
	return true
}

// conclude retires a live slot whose tensor finished.
func (m *AggregatorMachine) conclude(slot uint16, sl *aggSlot) {
	m.dropSlot(slot, sl.tensorID)
	m.freeSlot(sl)
	if m.SlotFinished != nil {
		m.SlotFinished(sl.tensorID)
	}
}

// AdoptFrom adopts every result src holds for replay (see Held) and reports
// whether any changed this machine. For a src that was itself built by
// AdoptResult — a standby's shadow of a primary — that is all of src's
// state, so m ends where src is; the two may differ in configuration, which
// is the point: a shadow is built before the job's worker count is known.
func (m *AggregatorMachine) AdoptFrom(src *AggregatorMachine) bool {
	adopted := false
	for _, bucket := range src.archive {
		for _, ar := range bucket {
			adopted = m.AdoptResult(&ar.pkt) || adopted
		}
	}
	for _, bucket := range src.table {
		for _, e := range bucket {
			if e.sl.lastRes != nil {
				adopted = m.AdoptResult(e.sl.lastRes) || adopted
			}
		}
	}
	return adopted
}

// Held reports how many results the machine holds for replay: the last
// result of each live slot that has one, and the archived final results.
func (m *AggregatorMachine) Held() int {
	n := 0
	for _, bucket := range m.table {
		for _, e := range bucket {
			if e.sl.lastRes != nil {
				n++
			}
		}
	}
	for _, bucket := range m.archive {
		n += len(bucket)
	}
	return n
}

// accum accumulates one block-sized unit of aggregation, supporting plain
// float32 summation, fixed-point (switch-mode) summation, which is
// order-free and so deterministic as it stands, and deterministic
// worker-ID-ordered float reduction. All backing arrays are
// retained across rounds and tensors (init/reset truncate, never free).
//
// Every mode ends a round with its sum in f, and take hands f out as the
// result block's payload: no copy. f and prev are the two float arrays the
// accumulator alternates between, so round r's sum stays intact while
// round r+1 collects into the other one, and is overwritten only when
// round r+2 starts collecting — the lifetime of the result shells.
type accum struct {
	det   bool
	scale float64
	f     []float32
	prev  []float32 // the last sum taken (or adopted)
	q     []int64
	// Deterministic float mode: per[wid] is worker wid's block copy for the
	// current round (nil = absent), carved from arena. If arena
	// reallocates as workers arrive, earlier per-slices keep reading the
	// old backing — their copied values are intact there — and the grown
	// capacity makes later rounds allocation-free.
	arena []float32
	per   [][]float32
}

func newAccum(cfg Config) *accum {
	a := &accum{}
	a.init(cfg)
	return a
}

// init re-arms the accumulator for a (possibly different) config,
// truncating but keeping backing arrays.
func (a *accum) init(cfg Config) {
	a.det = cfg.DeterministicOrder
	a.scale = cfg.QuantizeScale
	a.reset()
}

func (a *accum) add(wid int, data []float32) {
	if a.scale != 0 {
		// Integer sums do not depend on the order: this is deterministic
		// mode's sum too.
		if len(a.q) < len(data) {
			a.q = append(a.q, make([]int64, len(data)-len(a.q))...)
		}
		for i, v := range data {
			a.q[i] += int64(math.RoundToEven(float64(v) * a.scale))
		}
		return
	}
	if a.det {
		for wid >= len(a.per) {
			a.per = append(a.per, nil)
		}
		start := len(a.arena)
		a.arena = append(a.arena, data...)
		a.per[wid] = a.arena[start:len(a.arena):len(a.arena)]
		return
	}
	a.reserve(len(data))
	if len(a.f) == 0 {
		// The round's first contribution is the sum so far: copy it, where
		// zero-extending and adding would touch the block twice (and turn
		// a -0.0 every worker agrees on into +0.0).
		a.f = append(a.f, data...)
		return
	}
	if len(a.f) < len(data) {
		a.f = append(a.f, make([]float32, len(data)-len(a.f))...)
	}
	tensor.AddF32(a.f, data)
}

// take returns the round's aggregate and starts the next round in the
// other array. The returned slice is valid until the round after next
// starts accumulating. Quantized mode, deterministic or not, converts its
// fixed-point sums into f; deterministic float mode folds worker
// contributions into f in ascending worker-ID order (the same float-op
// sequence as summing a sorted map), so results are bit-identical run to
// run.
func (a *accum) take() []float32 {
	switch {
	case a.scale != 0:
		a.reserve(len(a.q))
		for _, v := range a.q {
			a.f = append(a.f, float32(float64(v)/a.scale))
		}
	case a.det:
		for _, d := range a.per {
			if d == nil {
				continue
			}
			a.reserve(len(d))
			for len(a.f) < len(d) {
				a.f = append(a.f, 0)
			}
			tensor.AddF32(a.f, d)
		}
	}
	sum := a.f
	a.f, a.prev = a.prev, sum
	a.reset()
	return sum[:len(sum):len(sum)]
}

// reserve gives f room for n elements. When f is too small it allocates f
// and prev together, since prev is needed as soon as f is taken; the
// dropped prev, if any, lives on as the last result's payload.
func (a *accum) reserve(n int) {
	if cap(a.f) < n {
		pair := make([]float32, 2*n)
		a.f = append(pair[:0:n], a.f...)
		a.prev = pair[n : n : 2*n]
	}
}

// adopt makes a copy of data the last sum taken, as if this accumulator
// had concluded the round that produced it, and returns the copy; the
// round being collected is untouched.
func (a *accum) adopt(data []float32) []float32 {
	a.prev = append(a.prev[:0], data...)
	return a.prev[:len(data):len(data)]
}

func (a *accum) reset() {
	a.f = a.f[:0]
	a.q = a.q[:0]
	a.arena = a.arena[:0]
	for i := range a.per {
		a.per[i] = nil
	}
}
