package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/wire"
)

// The rungs below the live path replay a workload's own tensors through
// each layer's public API in one goroutine: the protocol machines wired
// EmitBuf to HandlePacket with nothing in between (machine-only), and the
// same with every packet encoded and decoded on the way (codec loop).

// wmachine is a worker-side protocol machine of either format.
type wmachine interface {
	start(eb *protocol.EmitBuf)
	handle(m protocol.Msg, eb *protocol.EmitBuf) error
	done() bool
	stats() protocol.WorkerStats
}

type denseMachine struct {
	m    *protocol.WorkerMachine
	view *protocol.DenseView
}

func (d *denseMachine) start(eb *protocol.EmitBuf) { d.m.Start(d.view, 0, eb) }
func (d *denseMachine) handle(m protocol.Msg, eb *protocol.EmitBuf) error {
	return d.m.HandlePacket(m.Dense, 0, eb)
}
func (d *denseMachine) done() bool                  { return d.m.Done() }
func (d *denseMachine) stats() protocol.WorkerStats { return d.m.Stats() }

type sparseMachine struct{ m *protocol.SparseWorkerMachine }

func (s *sparseMachine) start(eb *protocol.EmitBuf) { s.m.Start(eb) }
func (s *sparseMachine) handle(m protocol.Msg, eb *protocol.EmitBuf) error {
	return s.m.HandlePacket(m.Sparse, eb)
}
func (s *sparseMachine) done() bool                  { return s.m.Done() }
func (s *sparseMachine) stats() protocol.WorkerStats { return s.m.Stats() }

// delivery is one aggregator result on its way to a worker: the decoded
// shell itself (machine-only) or its encoding (codec loop).
type delivery struct {
	dst int
	msg protocol.Msg
	buf []byte
}

// ladder wires `workers` worker machines to the aggregator machines in
// memory. Results are delivered first in, first out: every delivery of a
// slot's round r is consumed before any of round r+1 is, and round r+2 —
// the first to reuse round r's double-buffered shell — is only produced
// in answer to a consumed round r+1, so shells are never read stale.
type ladder struct {
	cfg protocol.Config
	// aggs holds one machine per aggregator shard, split as
	// core.Aggregator.Run splits them (min(4, GOMAXPROCS) shards; dense
	// packets by slot, sparse by tensor ID), so per-machine state such as
	// a checkpoint's size matches the live path.
	aggs     []*protocol.AggregatorMachine
	ebW, ebA protocol.EmitBuf
	queue    []delivery
	seq      uint32
	// The current collective's worker machines, in storage that outlives
	// it, so the loop itself allocates nothing.
	ms [workers]wmachine
	dm [workers]denseMachine
	sm [workers]sparseMachine
	// audit makes collective count the heap objects the loop allocates.
	audit bool
	// Sparse result shells are rebuilt by every flush (dense ones are
	// double-buffered), so a machine-only delivery takes a copy, as the
	// simulator does.
	sparseFree []*wire.SparsePacket

	// codec routes every packet through AppendPacket/DecodePacketInto (or
	// the sparse pair), one encode per distinct packet and one decode per
	// delivery, as txBatch's dedup and the per-connection decode states do.
	codec    bool
	free     [][]byte
	aggDec   wire.Packet
	aggDecS  wire.SparsePacket
	aggArena []float32
	wDec     [workers]wire.Packet
	wDecS    [workers]wire.SparsePacket
	wArena   [workers][]float32
	capture  *[][]byte // when set, keeps a copy of every encoding

	// snapshot replays what a checkpointing primary adds to each emitting
	// aggregator step: AggregatorMachine.Checkpoint plus the gob encoding
	// core ships to the standby.
	snapshot bool

	encodes, decodes, wireBytes int64
	snapNs                      int64
}

func newLadder(wl *workload) *ladder {
	l := &ladder{cfg: protocol.Config{Workers: workers, Aggregators: []int{aggID}, Reliable: !wl.udp}.WithDefaults()}
	shards := runtime.GOMAXPROCS(0)
	if shards > 4 {
		shards = 4
	}
	for i := 0; i < shards; i++ {
		l.aggs = append(l.aggs, protocol.NewAggregatorMachine(l.cfg, aggID))
	}
	return l
}

func (l *ladder) nextTid() uint32 {
	l.seq++
	return protocol.TidFor(0, l.seq)
}

func (l *ladder) getBuf() []byte {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b[:0]
	}
	return nil
}

func (l *ladder) copySparse(p *wire.SparsePacket) *wire.SparsePacket {
	var c *wire.SparsePacket
	if n := len(l.sparseFree); n > 0 {
		c, l.sparseFree = l.sparseFree[n-1], l.sparseFree[:n-1]
	} else {
		c = &wire.SparsePacket{}
	}
	keys, vals := append(c.Keys[:0], p.Keys...), append(c.Values[:0], p.Values...)
	*c = *p
	c.Keys, c.Values = keys, vals
	return c
}

// encode appends e's wire form to a recycled buffer and counts it.
func (l *ladder) encode(e *protocol.Emit) []byte {
	b := e.Encode(l.getBuf())
	l.encodes++
	if l.capture != nil {
		*l.capture = append(*l.capture, append([]byte(nil), b...))
	}
	return b
}

// toAgg hands the pending worker emits to the aggregator and queues the
// results it answers with.
func (l *ladder) toAgg() error {
	for i := range l.ebW.Emits() {
		e := &l.ebW.Emits()[i]
		msg := protocol.Msg{Dense: e.Packet, Sparse: e.Sparse}
		shard := 0
		if e.Packet != nil {
			shard = int(e.Packet.Slot) % len(l.aggs)
		} else {
			shard = int(e.Sparse.TensorID) % len(l.aggs)
		}
		if l.codec {
			b := l.encode(e)
			l.decodes++
			l.wireBytes += int64(len(b))
			var err error
			if e.Packet != nil {
				l.aggArena, err = wire.DecodePacketInto(&l.aggDec, l.aggArena, b)
				msg = protocol.Msg{Dense: &l.aggDec}
			} else {
				err = wire.DecodeSparsePacketInto(&l.aggDecS, b)
				msg = protocol.Msg{Sparse: &l.aggDecS}
			}
			l.free = append(l.free, b)
			if err != nil {
				return err
			}
		}
		agg := l.aggs[shard]
		l.ebA.Reset()
		if err := agg.HandlePacket(msg, &l.ebA); err != nil {
			return err
		}
		if l.snapshot && l.ebA.Len() > 0 {
			t0 := time.Now()
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(agg.Checkpoint()); err != nil {
				return err
			}
			l.snapNs += int64(time.Since(t0))
		}
		var last []byte
		var lastPkt *wire.Packet
		var lastSparse *wire.SparsePacket
		for j := range l.ebA.Emits() {
			ea := &l.ebA.Emits()[j]
			d := delivery{dst: ea.Dst, msg: protocol.Msg{Dense: ea.Packet, Sparse: ea.Sparse}}
			if !l.codec && ea.Sparse != nil {
				d.msg.Sparse = l.copySparse(ea.Sparse)
			}
			if l.codec {
				if last == nil || ea.Packet != lastPkt || ea.Sparse != lastSparse {
					last, lastPkt, lastSparse = l.encode(ea), ea.Packet, ea.Sparse
					d.buf = last
				} else {
					// A multicast is encoded once; each further
					// destination costs the copy the fabric's Send makes.
					d.buf = append(l.getBuf(), last...)
				}
				l.wireBytes += int64(len(d.buf))
			}
			l.queue = append(l.queue, d)
		}
	}
	return nil
}

// run drives one collective over ms to completion.
func (l *ladder) run(ms []wmachine) error {
	l.queue = l.queue[:0]
	for _, m := range ms {
		l.ebW.Reset()
		m.start(&l.ebW)
		if err := l.toAgg(); err != nil {
			return err
		}
	}
	for head := 0; head < len(l.queue); head++ {
		d := l.queue[head]
		if l.codec {
			l.decodes++
			var err error
			if wire.PeekType(d.buf) == wire.TypeResult {
				l.wArena[d.dst], err = wire.DecodePacketInto(&l.wDec[d.dst], l.wArena[d.dst], d.buf)
				d.msg = protocol.Msg{Dense: &l.wDec[d.dst]}
			} else {
				err = wire.DecodeSparsePacketInto(&l.wDecS[d.dst], d.buf)
				d.msg = protocol.Msg{Sparse: &l.wDecS[d.dst]}
			}
			l.free = append(l.free, d.buf)
			if err != nil {
				return err
			}
		}
		l.ebW.Reset()
		if err := ms[d.dst].handle(d.msg, &l.ebW); err != nil {
			return err
		}
		if !l.codec && d.msg.Sparse != nil {
			l.sparseFree = append(l.sparseFree, d.msg.Sparse)
		}
		if err := l.toAgg(); err != nil {
			return err
		}
	}
	for w, m := range ms {
		if !m.done() {
			return fmt.Errorf("machine loop drained with worker %d not done", w)
		}
	}
	return nil
}

// ladderStats are one replayed op's counts, summed over its collectives.
type ladderStats struct {
	blocksSent, blocksSkipped int64 // over the workers
	rounds                    int64 // over the aggregator shards
	// mallocs is the heap objects allocated inside the machine loop when
	// the ladder audits (l.audit), 0 otherwise.
	mallocs uint64
}

// collective runs one collective over l.ms, folding its counts into st.
func (l *ladder) collective(st *ladderStats) (time.Duration, error) {
	var o0 uint64
	if l.audit {
		o0, _ = mallocs()
	}
	t0 := time.Now()
	err := l.run(l.ms[:])
	took := time.Since(t0)
	if l.audit {
		o1, _ := mallocs()
		st.mallocs += o1 - o0
	}
	for _, m := range l.ms {
		s := m.stats()
		st.blocksSent += s.BlocksSent
		st.blocksSkipped += s.BlocksSkipped
	}
	return took, err
}

// replayOp runs wl's op once through the ladder on bufs (dense kinds; the
// caller restores them first) or in's COO tensors (kv), verifying the
// result, and returns the time inside the machines and codecs.
func (l *ladder) replayOp(wl *workload, in *inputs, bufs [][]float32, views [][]*protocol.DenseView) (time.Duration, ladderStats, error) {
	var took time.Duration
	var st ladderStats
	for _, a := range l.aggs {
		st.rounds -= a.Stats().RoundsCompleted
	}
	if wl.kind == kindKV {
		tid := l.nextTid()
		for w := range l.ms {
			m, err := protocol.NewSparseWorkerMachine(l.cfg, w, tid, in.coo[w])
			if err != nil {
				return 0, st, err
			}
			l.sm[w].m = m
			l.ms[w] = &l.sm[w]
		}
		d, err := l.collective(&st)
		if err != nil {
			return 0, st, err
		}
		took = d
		for w := range l.sm {
			if !equalCOO(l.sm[w].m.Result(), in.refCOO) {
				return 0, st, errors.New("kv machine loop produced a wrong sum")
			}
		}
	} else {
		for _, sub := range views {
			tid := l.nextTid()
			for w := range l.ms {
				l.dm[w] = denseMachine{protocol.GetWorkerMachine(l.cfg, w, tid), sub[w]}
				l.ms[w] = &l.dm[w]
			}
			d, err := l.collective(&st)
			took += d
			for w := range l.dm {
				l.dm[w].m.Recycle()
			}
			if err != nil {
				return 0, st, err
			}
		}
		if !allEqual(bufs, in.ref) {
			return 0, st, errors.New("machine loop produced a wrong sum")
		}
	}
	for _, a := range l.aggs {
		st.rounds += a.Stats().RoundsCompleted
	}
	return took, st, nil
}

// denseViews builds the machines' window onto bufs: one collective's
// worth per sub-tensor (multijob_chan reduces jobsPerWorker slices, the
// rest one whole tensor). A view's bitmap is computed here, once, from the
// pristine data and stays valid every time bufs is restored — which keeps
// the bitmap scan (its own rung) out of the machine rungs.
func denseViews(wl *workload, bufs [][]float32) [][]*protocol.DenseView {
	subs := 1
	if wl.kind == kindMultiJob {
		subs = jobsPerWorker
	}
	per := wl.elems / subs
	views := make([][]*protocol.DenseView, subs)
	for s := range views {
		for w := range bufs {
			views[s] = append(views[s], protocol.NewDenseView(bufs[w][s*per:(s+1)*per], blockSize, false))
		}
	}
	return views
}

// restore copies the pristine inputs over bufs.
func restore(bufs [][]float32, in *inputs) {
	for w := range bufs {
		copy(bufs[w], in.pristine[w])
	}
}

func cloneInputs(in *inputs) [][]float32 {
	var bufs [][]float32
	for _, p := range in.pristine {
		bufs = append(bufs, append([]float32(nil), p...))
	}
	return bufs
}

// mallocs is the process's cumulative heap object and byte counts.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
