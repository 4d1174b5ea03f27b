package protocol

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// This file implements the sparse (key-value) block format extension of
// §3.3 / Algorithm 3. The input is a COO tensor; workers stream packets of
// key-value pairs in key order, each packet carrying the key of the
// sender's next non-zero value. The aggregator tracks every worker's
// next key and flushes the aggregated prefix below the global minimum to
// all workers, which assemble the full reduced tensor in key order.
//
// The paper's Algorithm 3 carries BlockSize pairs per packet. This
// implementation applies Block Fusion (§3.2) to it, from the same Config
// field the block path uses: a data packet and a flush chunk carry
// FusionWidth × BlockSize pairs, and FusionWidth = 1 is Algorithm 3
// verbatim. Flow control is the paper's stop-and-wait: a worker has one
// data packet outstanding and sends the next when the announced global
// next key reaches its own (Config.Streams does not apply to this mode).
//
// As in the paper, this mode targets reliable transports (the paper leaves
// a lossy realization as future work), so the machine requests no timers.
// It also sums in arrival order: Config.DeterministicOrder does not reach
// it, so with three or more workers a float result can differ in its last
// bits from run to run (integer-valued sums cannot).
//
// Keys are int32 and must not be negative, so every key is below the
// uint32 NextKey sentinels: 0xFFFFFFFF is the "no more keys" sentinel and
// 0xFFFFFFFE marks non-final chunks of the final flush.

// MoreComing marks a sparse-result chunk that is not the last of its
// flush: the receiving worker must not treat it as flow-control progress.
const MoreComing = wire.InfKey - 1

// ErrSparseResult reports a result chunk a sparse worker refused: its keys
// are not strictly increasing from the last pair assembled, one is not
// below the tensor's dimension, or its keys and values differ in number.
// The collective fails; the process does not.
var ErrSparseResult = errors.New("protocol: malformed sparse result")

// sparsePairs is the number of key-value pairs a full sparse data packet
// or flush chunk carries.
func (c Config) sparsePairs() int { return c.FusionWidth * c.BlockSize }

// SparseWorkerMachine is the worker side of one sparse AllReduce
// (Algorithm 3): it streams packets of key-value pairs in key order, flow
// controlled by the aggregator's announced global next key, and assembles
// the multicast result prefix into the output COO tensor.
type SparseWorkerMachine struct {
	cfg   Config
	id    int
	tid   uint32
	in    *tensor.COO
	out   tensor.COO // kept, truncated, by a recycled machine
	idx   int        // next unsent pair index into in
	done  bool
	stats WorkerStats

	// shells are the machine's reusable outbound packets (see the Emit
	// ownership contract); Keys and Values alias the input tensor
	// zero-copy.
	shells [2]wire.SparsePacket
	flip   int
}

// NewSparseWorkerMachine validates the input tensor's key range and
// creates the machine. Sparse mode requires a reliable transport.
func NewSparseWorkerMachine(cfg Config, workerID int, tensorID uint32, in *tensor.COO) (*SparseWorkerMachine, error) {
	m := &SparseWorkerMachine{}
	if err := m.init(cfg, workerID, tensorID, in); err != nil {
		return nil, err
	}
	return m, nil
}

// init validates in and re-arms m for a new collective over it, leaving m
// untouched on error. The input must be a well-formed COO tensor
// (tensor.COO.Check): strictly ascending keys are what the aggregator
// admits (see admit), and a key in [0, Dim) never collides with the
// NextKey sentinels (MoreComing, wire.InfKey) on the wire. A malformed
// input fails here, before anything is sent.
func (m *SparseWorkerMachine) init(cfg Config, workerID int, tensorID uint32, in *tensor.COO) error {
	cfg = cfg.WithDefaults()
	if !cfg.Reliable {
		return fmt.Errorf("protocol: sparse mode requires a reliable transport")
	}
	if err := in.Check(); err != nil {
		return fmt.Errorf("protocol: worker %d: %w", workerID, err)
	}
	m.cfg, m.id, m.tid, m.in = cfg, workerID, tensorID, in
	m.out = tensor.COO{Dim: in.Dim, Keys: m.out.Keys[:0], Values: m.out.Values[:0]}
	m.idx, m.done, m.stats = 0, false, WorkerStats{}
	return nil
}

// Stats returns a copy of the machine's traffic counters.
func (m *SparseWorkerMachine) Stats() WorkerStats { return m.stats }

// Done reports whether the final result chunk has arrived.
func (m *SparseWorkerMachine) Done() bool { return m.done }

// Result returns the assembled global reduction; valid once Done, and,
// for a pooled machine, until Recycle.
func (m *SparseWorkerMachine) Result() *tensor.COO { return &m.out }

// Start emits the first packet of pairs (Algorithm 3 lines 2-7) into eb.
func (m *SparseWorkerMachine) Start(eb *EmitBuf) {
	m.sendNext(eb)
}

// sendNext builds and accounts the next packet of FusionWidth × BlockSize
// pairs in a flipped shell. Keys and Values alias the input tensor
// (machines never mutate it).
func (m *SparseWorkerMachine) sendNext(eb *EmitBuf) {
	hi := min(m.idx+m.cfg.sparsePairs(), m.in.Len())
	m.flip ^= 1
	p := &m.shells[m.flip]
	p.Type = wire.TypeSparseData
	p.WID = uint16(m.id)
	p.TensorID = m.tid
	p.NextKey = wire.InfKey
	p.Keys = m.in.Keys[m.idx:hi]
	p.Values = m.in.Values[m.idx:hi]
	m.idx = hi
	if m.idx < m.in.Len() {
		p.NextKey = uint32(m.in.Keys[m.idx])
	}
	size := wire.EncodedSparsePacketSize(p)
	m.stats.PacketsSent++
	m.stats.BytesSent += int64(size)
	// Sparse tensors are routed by tensor ID (not per-stream like dense):
	// Algorithm 3's streaming merge needs every worker's chunks for one
	// tensor at a single aggregator, and keying by tid keeps all workers
	// in agreement while still spreading distinct tensors across the
	// multi-aggregator round-robin.
	eb.Append(Emit{Dst: m.cfg.AggregatorFor(int(m.tid)), Sparse: p, Size: size})
}

// HandleMsg is HandlePacket for a Msg; it refuses a block-format message.
// The key-value mode has no timers (now is unused).
func (m *SparseWorkerMachine) HandleMsg(msg Msg, _ time.Duration, eb *EmitBuf) error {
	if msg.Sparse == nil {
		return fmt.Errorf("protocol: worker %d: unexpected message type %d in sparse mode", m.id, msg.Type())
	}
	return m.HandlePacket(msg.Sparse, eb)
}

// NextTimeout publishes no deadline: the mode is reliable-only (init
// refuses anything else), so nothing is ever resent.
func (m *SparseWorkerMachine) NextTimeout() (time.Duration, bool) { return 0, false }

// HandleTimeout does nothing, for the same reason as NextTimeout.
func (m *SparseWorkerMachine) HandleTimeout(time.Duration, *EmitBuf) error { return nil }

// Rebind does nothing: the key-value mode has no failover (DESIGN §12).
// Its packets keep going to the aggregator the collective started with.
func (m *SparseWorkerMachine) Rebind([]int, time.Duration, *EmitBuf) {}

// HandlePacket consumes one sparse result chunk: appends the flushed
// prefix to the output and, when the global progress reaches our next
// unsent key, emits the next packet into eb (Algorithm 3 line 10). Every
// accepted chunk counts in ResultsRecvd, the driver's progress signal. A
// chunk for another tensor is filtered (counted in StaleResults) with no
// emits, as WorkerMachine filters one. A chunk that does not continue the
// output in strictly increasing key order, below the tensor's dimension,
// fails the collective with ErrSparseResult.
func (m *SparseWorkerMachine) HandlePacket(p *wire.SparsePacket, eb *EmitBuf) error {
	if p.Type != wire.TypeSparseResult {
		return fmt.Errorf("protocol: worker %d: unexpected message type %d in sparse mode", m.id, p.Type)
	}
	if p.TensorID != m.tid {
		m.stats.StaleResults++
		return nil // stale result from another tensor
	}
	if err := m.out.AppendRun(p.Keys, p.Values); err != nil {
		return fmt.Errorf("protocol: worker %d: %w: %w", m.id, ErrSparseResult, err)
	}
	m.stats.ResultsRecvd++
	if p.NextKey == wire.InfKey {
		m.done = true
		return nil
	}
	if m.idx < m.in.Len() && p.NextKey != MoreComing && int64(p.NextKey) >= int64(m.in.Keys[m.idx]) {
		m.sendNext(eb)
	}
	return nil
}

// sparseAgg is the aggregator-side state of Algorithm 3.
//
// The aggregate is held as parallel sorted runs (keys/vals) with a
// flushed-prefix watermark: workers stream their pairs in key order, so
// each inbound packet is an ascending run that merges into the part of the
// unflushed suffix it overlaps with zero allocation. The suffix holds at
// most Workers × FusionWidth × BlockSize pairs: a worker sends a packet
// only once everything below that packet's first key has been flushed, so
// only its latest packet can hold unflushed pairs. Flushes emit subslices
// of the runs zero-copy; the flushed prefix is retained (never compacted)
// so emitted subslices stay valid while the driver consumes them.
//
// A packet that is not such a run — keys not strictly ascending, or a key
// below the flush watermark — is refused (see admit). Keys order as the
// wire carries them, unsigned: the aggregator does not know the tensor's
// dimension, so a key of 2^31 or more merges like any other and is the
// workers' to refuse (ErrSparseResult).
type sparseAgg struct {
	tensorID uint32

	keys    []int32
	vals    []float32
	flushed int // keys[:flushed] already flushed

	// mergeK/mergeV are scratch: mergeRun merges a packet with the
	// suffix it overlaps into them before moving the result into place.
	mergeK []int32
	mergeV []float32

	nextKey []int64 // per-worker next key; -1 unknown, maxInt64 done
	sent    int64   // smallest unflushed key

	// shells are the reusable result-chunk packets of one flush; the
	// array is reserved to the flush's chunk count up front so earlier
	// chunks' pointers stay stable while later ones are built.
	shells []wire.SparsePacket
}

// newSparse re-arms a free-listed (or fresh) sparse aggregation state.
func (m *AggregatorMachine) newSparse(tensorID uint32) *sparseAgg {
	sparseSlotGets.Add(1)
	obs.Emit(obs.EvMachinePoolGet, tensorID, 2)
	var sa *sparseAgg
	if n := len(m.sparseFree); n > 0 {
		sa = m.sparseFree[n-1]
		m.sparseFree[n-1] = nil
		m.sparseFree = m.sparseFree[:n-1]
	} else {
		sa = &sparseAgg{}
	}
	sa.tensorID = tensorID
	sa.keys = sa.keys[:0]
	sa.vals = sa.vals[:0]
	sa.flushed = 0
	sa.nextKey = resizeI64(sa.nextKey, m.cfg.Workers)
	for i := range sa.nextKey {
		sa.nextKey[i] = -1
	}
	sa.sent = 0
	return sa
}

func (m *AggregatorMachine) freeSparse(sa *sparseAgg) {
	sparseSlotPuts.Add(1)
	obs.Emit(obs.EvMachinePoolPut, sa.tensorID, 2)
	m.sparseFree = append(m.sparseFree, sa)
}

// admit checks p against the merge's contract: as many values as keys,
// keys strictly ascending, and none below the flush watermark sent (0 for
// a tensor not yet open). An honest worker always meets it: its input is
// strictly ascending (SparseWorkerMachine checks), and a packet's first
// key is at or above the announced global next key it waited for.
//
// A packet below the watermark cannot be merged correctly at all: its
// keys may already have gone out in a flush, and a flush is never resent,
// so folding it in would lose the contribution without an error. The
// refusal wraps tensor.ErrKeyOrder and leaves the state untouched.
func admit(p *wire.SparsePacket, sent int64) error {
	if len(p.Keys) != len(p.Values) {
		return fmt.Errorf("protocol: sparse packet from worker %d: %w: %d keys, %d values", p.WID, tensor.ErrKeyOrder, len(p.Keys), len(p.Values))
	}
	if len(p.Keys) == 0 {
		return nil
	}
	if k := uint32(p.Keys[0]); int64(k) < sent {
		return fmt.Errorf("protocol: sparse packet from worker %d: %w: key %d below the flushed prefix (next key %d)", p.WID, tensor.ErrKeyOrder, k, sent)
	}
	for i := 1; i < len(p.Keys); i++ {
		if uint32(p.Keys[i]) <= uint32(p.Keys[i-1]) {
			return fmt.Errorf("protocol: sparse packet from worker %d: %w: key %d after %d", p.WID, tensor.ErrKeyOrder, uint32(p.Keys[i]), uint32(p.Keys[i-1]))
		}
	}
	return nil
}

// mergeRun folds p's strictly ascending run into the unflushed suffix of
// the sorted runs. Held pairs below the packet's first key stay where they
// are. The held pairs from there to its last key and the packet merge into
// mergeK/mergeV (tensor.MergeRuns, held + packet on equal keys), the held
// pairs above its last key move up by the number of new keys in one copy,
// and one more copy puts the merge in the gap. A packet past every held
// key, as every worker's first is, is two bulk copies.
func (sa *sparseAgg) mergeRun(p *wire.SparsePacket) {
	pk, pv := p.Keys, p.Values
	if len(pk) == 0 {
		return
	}
	unflushed := sa.keys[sa.flushed:]
	lo := sa.flushed + sort.Search(len(unflushed), func(i int) bool { return uint32(unflushed[i]) >= uint32(pk[0]) })
	above := sa.keys[lo:]
	last := uint32(pk[len(pk)-1])
	hi := lo + sort.Search(len(above), func(i int) bool { return uint32(above[i]) > last })
	n := hi - lo + len(pk)
	mk := slices.Grow(sa.mergeK[:0], n)[:n]
	mv := slices.Grow(sa.mergeV[:0], n)[:n]
	sa.mergeK, sa.mergeV = mk, mv
	o := tensor.MergeRuns(mk, mv, sa.keys[lo:hi], sa.vals[lo:hi], pk, pv)
	// The merge replaces keys[lo:hi]; it is longer by the keys that are new.
	end, added := len(sa.keys), o-(hi-lo)
	sa.keys = slices.Grow(sa.keys, added)[:end+added]
	sa.vals = slices.Grow(sa.vals, added)[:end+added]
	copy(sa.keys[lo+o:], sa.keys[hi:end])
	copy(sa.vals[lo+o:], sa.vals[hi:end])
	copy(sa.keys[lo:], mk[:o])
	copy(sa.vals[lo:], mv[:o])
}

func (m *AggregatorMachine) handleSparse(p *wire.SparsePacket, eb *EmitBuf) error {
	wid := int(p.WID)
	if wid >= m.cfg.Workers {
		return fmt.Errorf("protocol: sparse packet from unknown worker %d", p.WID)
	}
	// Sparse operations are keyed by tensor ID, so several may be in
	// flight concurrently. A refused packet opens no state.
	sa := m.sparse[p.TensorID]
	sent := int64(0)
	if sa != nil {
		sent = sa.sent
	}
	if err := admit(p, sent); err != nil {
		return err
	}
	if sa == nil {
		sa = m.newSparse(p.TensorID)
		m.sparse[p.TensorID] = sa
		if m.SlotOpened != nil {
			m.SlotOpened(p.TensorID)
		}
	}
	// Merge pairs (Algorithm 3 line 25).
	sa.mergeRun(p)
	if p.NextKey == wire.InfKey {
		sa.nextKey[wid] = nextDone
	} else {
		sa.nextKey[wid] = int64(p.NextKey)
	}
	min := minOf(sa.nextKey)
	if min == -1 {
		return nil // not all workers reported yet
	}
	if min == nextDone {
		// Final flush: everything pending, last chunk marked InfKey.
		m.flushSparse(sa, nextDone, eb)
		delete(m.sparse, p.TensorID)
		if m.SlotFinished != nil {
			m.SlotFinished(p.TensorID)
		}
		m.freeSparse(sa)
		return nil
	}
	if min > sa.sent {
		m.flushSparse(sa, min, eb)
		sa.sent = min
	}
	return nil
}

// flushSparse multicasts aggregated pairs with key < upTo into eb,
// chunked into packets of FusionWidth × BlockSize pairs. upTo == nextDone
// flushes everything and marks the final chunk with InfKey.
func (m *AggregatorMachine) flushSparse(sa *sparseAgg, upTo int64, eb *EmitBuf) {
	unflushed := sa.keys[sa.flushed:]
	end := sa.flushed + sort.Search(len(unflushed), func(i int) bool { return int64(uint32(unflushed[i])) >= upTo })
	// Zero-copy subslices of the runs: the flushed prefix is never
	// compacted or overwritten, so these stay valid past the call.
	ks := sa.keys[sa.flushed:end]
	vs := sa.vals[sa.flushed:end]
	sa.flushed = end
	bs := m.cfg.sparsePairs()
	final := upTo == nextDone
	chunks := (len(ks) + bs - 1) / bs
	if chunks == 0 {
		// Always send at least one packet: the flush is also the
		// flow-control clock for the workers (it announces the new global
		// next key).
		chunks = 1
	}
	// Reserve every chunk shell before emitting any, so earlier chunks'
	// pointers stay stable while later ones are filled.
	if cap(sa.shells) < chunks {
		sa.shells = make([]wire.SparsePacket, chunks)
	}
	sa.shells = sa.shells[:chunks]
	off := 0
	for i := 0; i < chunks; i++ {
		n := len(ks) - off
		if n > bs {
			n = bs
		}
		p := &sa.shells[i]
		p.Type = wire.TypeSparseResult
		p.WID = uint16(m.localID & 0xFFFF)
		p.TensorID = sa.tensorID
		p.Keys = ks[off : off+n]
		p.Values = vs[off : off+n]
		off += n
		switch {
		case off < len(ks):
			p.NextKey = MoreComing
		case final:
			p.NextKey = wire.InfKey
		default:
			p.NextKey = uint32(upTo)
		}
		size := wire.EncodedSparsePacketSize(p)
		for w := 0; w < m.cfg.Workers; w++ {
			eb.Append(Emit{Dst: w, Sparse: p, Size: size})
		}
	}
}
