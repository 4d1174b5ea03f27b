package protocol

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"

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
// untouched on error. A key below zero is the only one that could collide
// with the NextKey sentinels (MoreComing, wire.InfKey) on the wire.
func (m *SparseWorkerMachine) init(cfg Config, workerID int, tensorID uint32, in *tensor.COO) error {
	cfg = cfg.WithDefaults()
	if !cfg.Reliable {
		return fmt.Errorf("protocol: sparse mode requires a reliable transport")
	}
	for _, k := range in.Keys {
		if k < 0 {
			return fmt.Errorf("protocol: worker %d: sparse key %d: %w", workerID, k, tensor.ErrKeyOrder)
		}
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

// HandlePacket consumes one sparse result chunk: appends the flushed
// prefix to the output and, when the global progress reaches our next
// unsent key, emits the next packet into eb (Algorithm 3 line 10). Every
// accepted chunk counts in ResultsRecvd, the driver's progress signal. A chunk
// that does not continue the output in strictly increasing key order,
// below the tensor's dimension, fails the collective with ErrSparseResult.
func (m *SparseWorkerMachine) HandlePacket(p *wire.SparsePacket, eb *EmitBuf) error {
	if p.Type != wire.TypeSparseResult {
		return fmt.Errorf("protocol: worker %d: unexpected message type %d in sparse mode", m.id, p.Type)
	}
	if p.TensorID != m.tid {
		return nil // stale
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
// The steady state holds the aggregate as parallel sorted runs
// (keys/vals) with a flushed-prefix watermark: workers stream their pairs
// in key order, so each inbound packet is an ascending run that merges
// into the part of the unflushed suffix it overlaps with zero allocation.
// The suffix holds at most Workers × FusionWidth × BlockSize pairs: a
// worker sends a packet only once everything below that packet's first key
// has been flushed, so only its latest packet can hold unflushed pairs.
// Flushes emit subslices of the runs zero-copy; the flushed prefix is
// retained (never compacted) so emitted subslices stay valid while the
// driver consumes them. If a packet ever violates the ordering
// assumptions (unsorted keys, or keys below the flush watermark), the
// state falls back permanently to the map+heap path, which accepts
// arbitrary key orderings at allocation cost.
type sparseAgg struct {
	tensorID uint32

	// Sorted-run fast path.
	sorted  bool
	keys    []int32
	vals    []float32
	flushed int // keys[:flushed] already flushed

	// mergeK/mergeV are scratch both paths reuse: the sorted path merges
	// a packet's overlap into them before moving it into place, the
	// fallback path pops a flush's pairs into them to emit.
	mergeK []int32
	mergeV []float32

	// Fallback path (map + heap), engaged by fallbackify.
	values  map[int32]float32
	pending keyHeap // aggregated keys not yet flushed

	nextKey  []int64 // per-worker next key; -1 unknown, maxInt64 done
	sent     int64   // smallest unflushed key
	finished bool

	// shells are the reusable result-chunk packets of one flush; the
	// array is reserved to the flush's chunk count up front so earlier
	// chunks' pointers stay stable while later ones are built.
	shells []wire.SparsePacket
}

type keyHeap []int32

func (h keyHeap) Len() int            { return len(h) }
func (h keyHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h keyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *keyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
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
	sa.sorted = true
	sa.keys = sa.keys[:0]
	sa.vals = sa.vals[:0]
	sa.flushed = 0
	if sa.values != nil {
		clear(sa.values)
	}
	sa.pending = sa.pending[:0]
	sa.nextKey = resizeI64(sa.nextKey, m.cfg.Workers)
	for i := range sa.nextKey {
		sa.nextKey[i] = -1
	}
	sa.sent = 0
	sa.finished = false
	return sa
}

func (m *AggregatorMachine) freeSparse(sa *sparseAgg) {
	sparseSlotPuts.Add(1)
	obs.Emit(obs.EvMachinePoolPut, sa.tensorID, 2)
	m.sparseFree = append(m.sparseFree, sa)
}

// fallbackify abandons the sorted-run representation: all aggregated
// pairs move into the values map (flushed ones included, so late
// contributions to already-flushed keys keep folding in, matching the
// historical map semantics), unflushed keys into the pending heap.
func (sa *sparseAgg) fallbackify() {
	if sa.values == nil {
		sa.values = make(map[int32]float32, len(sa.keys))
	}
	for i, k := range sa.keys {
		sa.values[k] = sa.vals[i]
	}
	sa.pending = append(sa.pending[:0], sa.keys[sa.flushed:]...)
	heap.Init(&sa.pending)
	sa.keys = sa.keys[:0]
	sa.vals = sa.vals[:0]
	sa.flushed = 0
	sa.sorted = false
}

// runSortedFor reports whether p's keys can merge into the sorted runs:
// non-descending and nothing below the flush watermark. In-order workers
// always satisfy this (a worker's new keys are >= its announced next key
// >= the flushed global minimum).
func (sa *sparseAgg) runSortedFor(p *wire.SparsePacket) bool {
	if len(p.Keys) == 0 {
		return true
	}
	if int64(p.Keys[0]) < sa.sent {
		return false
	}
	for i := 1; i < len(p.Keys); i++ {
		if p.Keys[i] < p.Keys[i-1] {
			return false
		}
	}
	return true
}

// mergeRun folds p's ascending key-value run into the unflushed suffix of
// the sorted runs. Equal keys fold in arrival order, the same float-op
// sequence as the map path's `+=`. Only the pairs the packet's key range
// overlaps go through the merge loop: those below its first key stay
// where they are, those above its last key move up in one copy.
func (sa *sparseAgg) mergeRun(p *wire.SparsePacket) {
	pk, pv := p.Keys, p.Values
	if len(pk) == 0 {
		return
	}
	unflushed := sa.keys[sa.flushed:]
	lo := sa.flushed + sort.Search(len(unflushed), func(i int) bool { return unflushed[i] >= pk[0] })
	suf, sufV := sa.keys[lo:], sa.vals[lo:]
	mk, mv := sa.mergeK[:0], sa.mergeV[:0]
	i, j := 0, 0
	for i < len(suf) && j < len(pk) {
		switch {
		case suf[i] < pk[j]:
			mk = append(mk, suf[i])
			mv = append(mv, sufV[i])
			i++
		case suf[i] > pk[j]:
			mk, mv = appendFold(mk, mv, pk[j], pv[j])
			j++
		default:
			mk = append(mk, suf[i])
			mv = append(mv, sufV[i]+pv[j])
			i++
			j++
		}
	}
	for ; j < len(pk); j++ {
		mk, mv = appendFold(mk, mv, pk[j], pv[j])
	}
	sa.mergeK, sa.mergeV = mk, mv
	// mk replaces suf[:i]; it is longer by the keys that are new.
	n, added := len(sa.keys), len(mk)-i
	sa.keys = slices.Grow(sa.keys, added)[:n+added]
	sa.vals = slices.Grow(sa.vals, added)[:n+added]
	copy(sa.keys[lo+len(mk):], sa.keys[lo+i:n])
	copy(sa.vals[lo+len(mk):], sa.vals[lo+i:n])
	copy(sa.keys[lo:], mk)
	copy(sa.vals[lo:], mv)
}

// appendFold appends (k, v), folding into the last entry when the key
// repeats (duplicate keys within one packet).
func appendFold(mk []int32, mv []float32, k int32, v float32) ([]int32, []float32) {
	if n := len(mk); n > 0 && mk[n-1] == k {
		mv[n-1] += v
		return mk, mv
	}
	return append(mk, k), append(mv, v)
}

func (m *AggregatorMachine) handleSparse(p *wire.SparsePacket, eb *EmitBuf) error {
	// Sparse operations are keyed by tensor ID, so several may be in
	// flight concurrently.
	sa := m.sparse[p.TensorID]
	if sa == nil {
		sa = m.newSparse(p.TensorID)
		m.sparse[p.TensorID] = sa
		if m.SlotOpened != nil {
			m.SlotOpened(p.TensorID)
		}
	}
	if sa.finished {
		return nil
	}
	wid := int(p.WID)
	if wid >= m.cfg.Workers {
		return fmt.Errorf("protocol: sparse packet from unknown worker %d", p.WID)
	}
	// Merge pairs (Algorithm 3 line 25).
	if sa.sorted && !sa.runSortedFor(p) {
		sa.fallbackify()
	}
	if sa.sorted {
		sa.mergeRun(p)
	} else {
		for i, k := range p.Keys {
			if _, ok := sa.values[k]; !ok {
				heap.Push(&sa.pending, k)
			}
			sa.values[k] += p.Values[i]
		}
	}
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
		sa.finished = true
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
	var ks []int32
	var vs []float32
	if sa.sorted {
		unflushed := sa.keys[sa.flushed:]
		end := sa.flushed + sort.Search(len(unflushed), func(i int) bool { return int64(unflushed[i]) >= upTo })
		// Zero-copy subslices of the runs: the flushed prefix is never
		// compacted or overwritten, so these stay valid past the call.
		ks = sa.keys[sa.flushed:end]
		vs = sa.vals[sa.flushed:end]
		sa.flushed = end
	} else {
		mk := sa.mergeK[:0]
		mv := sa.mergeV[:0]
		for sa.pending.Len() > 0 && int64(sa.pending[0]) < upTo {
			k := heap.Pop(&sa.pending).(int32)
			mk = append(mk, k)
			mv = append(mv, sa.values[k])
		}
		sa.mergeK, sa.mergeV = mk, mv
		ks, vs = mk, mv
	}
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
