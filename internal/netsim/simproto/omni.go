package simproto

import (
	"fmt"
	"time"

	"omnireduce/internal/netsim"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// This file is the virtual-time driver of the OmniReduce protocol: it runs
// the same worker machines (protocol.WorkerOp: the block format's
// WorkerMachine and the key-value format's SparseWorkerMachine) and
// protocol.AggregatorMachine that internal/core drives over real
// transports, but feeds them from the netsim discrete-event loop. Messages
// are delivered as decoded packets (protocol.Msg) and charged to the
// simulated fabric at their exact wire-encoded size (Emit.Size, computed
// by internal/wire). There is no simulator-private round schedule or
// packet-size formula: whatever the machines emit is what the fabric
// carries.
//
// Every entry point runs the protocol.Config it is given, the same value
// a live cluster's core.Config.Protocol() hands its machines, completed by
// one rule (fit): workers and aggregator IDs from the Cluster, zero fields
// from protocol.Defaults. The paper's figures run PaperConfig. OmniOpts
// holds only what a simulation alone has: the switch-aggregator and
// staging-copy models and the failover kill point.
//
// Because the machines emit reusable packet shells (see the protocol.Emit
// ownership contract: consume before the next call into the machine) and
// simulated delivery happens at a future virtual time, the router
// deep-copies every emitted packet into a pooled shell at send time; the
// receiving handler recycles the shell once the machine consumed it
// (machines copy what they keep during HandlePacket). The fabric never
// duplicates a message, so each shell has exactly one consumer.

// PaperConfig is the paper's protocol configuration, the one the
// simulated figures run. The simulated 10/100 Gbps fabrics and their
// per-packet CPU cost are calibrated against the paper's figures, which
// its implementation produced with 8 fused blocks per packet and 256
// outstanding packets per worker (§5): 32 streams of 8-block packets give
// a comparable pipeline depth. protocol.Defaults' shape is measured on the
// live in-process and loopback fabrics, where the trade-off differs (the
// fusion-width ablation: 32-block packets cost a dense 10 Gbps run 5%).
//
// The retransmission timer runs at a fixed cadence (backoff 1, no
// jitter): the live default's adaptive backoff defends against real
// congestion collapse, but the fabric model drops packets i.i.d., so
// backing off only inflates Algorithm 2's detection latency and distorts
// the loss-recovery figures it exists to measure. Its 1 ms timeout suits
// virtual-time round trips of microseconds, where the live 20 ms default
// would be absurdly conservative. Callers change fields on the copy it
// returns (Fig 21 runs it unreliable with a 10 ms timeout).
func PaperConfig() protocol.Config {
	return protocol.Config{
		FusionWidth:       8,
		Streams:           32,
		Reliable:          true,
		RetransmitTimeout: time.Millisecond,
		RetransmitBackoff: 1,
		RetransmitJitter:  -1, // negative = disabled (0 would mean "default")
	}
}

// OmniOpts holds what only a simulated run has; the protocol itself is
// the protocol.Config every entry point takes.
type OmniOpts struct {
	// SwitchAgg models the P4 switch aggregator of Fig 18: negligible
	// per-packet processing at the aggregator.
	SwitchAgg bool
	// NoCopy skips the staging-copy model regardless of cluster CopyBW.
	NoCopy bool
	// FailoverAtEvent, when > 0, kills the aggregator serving position
	// FailAggIndex (in aggregatorIDs order) immediately before the run's
	// FailoverAtEvent-th event (events are the deliveries to a machine and
	// the timer wakeups, counted in OmniRun.Events), so a test can put the
	// kill at every point of a collective, and fails the position over to
	// a standby at the next free node ID after the dedicated aggregators.
	// The standby machine has adopted every result the doomed machine
	// committed (AdoptResult on its Commit emits — what the live driver
	// mirrors to standbys, here without a fabric in between) and knows
	// nothing else; every worker machine rebinds (Rebind), replaying its
	// unacknowledged rounds at the new aggregator. Requires an unreliable
	// config (reliable mode has no replay machinery) and dedicated
	// aggregator nodes (a colocated aggregator cannot die alone).
	FailoverAtEvent int
	FailAggIndex    int
}

// simPkt is one in-flight simulated message: a deep copy of an emitted
// machine shell of either format (a block packet with its payloads carved
// from data, or a key-value packet), pooled per run and recycled by the
// receiving handler. msg points at whichever shell holds the copy.
type simPkt struct {
	p    wire.Packet
	data []float32
	sp   wire.SparsePacket
	msg  protocol.Msg
}

// simTid is the tensor ID of every simulated collective: the live
// worker's first (core's default job numbers its operations from 1), so a
// key-value run, which picks its aggregator by tensor ID, uses the same
// one on both substrates.
const simTid = 1

// aggregatorIDs returns the simulated aggregator node IDs: the worker
// nodes themselves when colocated, dedicated nodes numbered after the
// workers otherwise.
func aggregatorIDs(c Cluster) []int {
	n := c.Workers
	if c.Colocated {
		ids := make([]int, n)
		for w := range ids {
			ids[w] = w
		}
		return ids
	}
	m := c.Aggregators
	if m < 1 {
		m = 1
	}
	ids := make([]int, m)
	for a := range ids {
		ids[a] = n + a
	}
	return ids
}

// fit completes cfg for a run on c, the one defaulting rule of every
// entry point: workers and aggregator IDs from the cluster layout, zero
// fields from protocol.Defaults.
func fit(c Cluster, cfg protocol.Config) protocol.Config {
	cfg.Workers = c.Workers
	cfg.Aggregators = aggregatorIDs(c)
	return cfg.WithDefaults()
}

// specView is the simulator's TensorView over a block-occupancy spec: it
// reports the spec's bitmap and hands out a shared zero-filled payload, so
// the machines run the real schedule without real data.
type specView struct {
	blocks int
	bm     *tensor.Bitmap
	zeros  []float32
}

func (v *specView) NumBlocks() int          { return v.blocks }
func (v *specView) NonZero(b int) bool      { return v.bm.Get(b) }
func (v *specView) Block(b int) []float32   { return v.zeros }
func (v *specView) SetBlock(int, []float32) {}

// OmniRun is the full outcome of one simulated collective: completion
// time plus the protocol machines' own traffic counters, for
// substrate-equivalence checks against the live implementation.
type OmniRun struct {
	Time float64
	// Events is how many messages were delivered to a machine plus how
	// many retransmission wakeups fired.
	Events      int
	WorkerStats []protocol.WorkerStats
	// AggStats is indexed in aggregatorIDs order; on failover runs a
	// position reports the machine that finished serving it (the standby,
	// for the failed position — the dead machine's counters die with it).
	AggStats []protocol.AggStats
	// Results holds each worker's reduced tensor for tensor-backed runs
	// (SimOmniReduceTensors); nil for spec-driven runs.
	Results [][]float32
	// SparseResults holds each worker's reduced tensor for key-value runs
	// (SimOmniReduceSparse).
	SparseResults []*tensor.COO
	// Faults are the fabric's injection tallies (Cluster.Faults).
	Faults transport.EventCounts
}

// SimOmniReduce runs the block-aggregation protocol on the simulator and
// returns the completion time in seconds (when every worker has the final
// result and, if modeled, the staging copy has drained). The machines run
// cfg (see fit) with the spec's block size.
func SimOmniReduce(c Cluster, spec *BlockSpec, cfg protocol.Config, opts OmniOpts) float64 {
	cfg.BlockSize = max(int(spec.BlockBytes/4), 1)
	cfg = fit(c, cfg)
	zeros := make([]float32, cfg.BlockSize)
	views := make([]protocol.TensorView, c.Workers)
	for w := range views {
		views[w] = &specView{blocks: spec.Blocks, bm: spec.PerWorker[w], zeros: zeros}
	}
	return runDense(c, views, cfg, opts, spec.TotalBytes()).Time
}

// runDense runs one block-format collective over views.
func runDense(c Cluster, views []protocol.TensorView, cfg protocol.Config, opts OmniOpts, copyBytes float64) *OmniRun {
	return runOmni(c, cfg, opts, copyBytes, func(w int, eb *protocol.EmitBuf) protocol.WorkerOp {
		m := protocol.NewWorkerMachine(cfg, w, simTid)
		m.Start(views[w], 0, eb)
		return m
	})
}

// SimOmniReduceTensors runs the protocol machines over real per-worker
// tensors in virtual time: the same data path as the live cluster, on the
// simulated fabric. Topology comes from c (which must agree with
// len(inputs)); the machines run cfg (see fit). The inputs are not
// modified; Results holds the reduced tensors.
func SimOmniReduceTensors(c Cluster, inputs [][]float32, cfg protocol.Config, opts OmniOpts) *OmniRun {
	c.Workers = len(inputs)
	cfg = fit(c, cfg)
	views := make([]protocol.TensorView, len(inputs))
	results := make([][]float32, len(inputs))
	var copyBytes float64
	for w := range inputs {
		d := append([]float32(nil), inputs[w]...)
		results[w] = d
		views[w] = protocol.NewDenseView(d, cfg.BlockSize, cfg.ForceDense)
		copyBytes = float64(4 * len(d))
	}
	run := runDense(c, views, cfg, opts, copyBytes)
	run.Results = results
	return run
}

// SimOmniReduceSparse runs Algorithm 3, the key-value format, over real
// per-worker COO tensors in virtual time: SimOmniReduceTensors' twin for
// the live worker's AllReduceSparse. The collective goes to the one
// aggregator cfg.AggregatorFor(tensor ID) names, as it does live. The mode
// is reliable-only, so an unreliable cfg fails, as does a malformed input
// (tensor.COO.Check); failover is not modelled for it. The inputs are not
// modified; SparseResults holds the reduced tensors. The staging copy is
// charged at the largest input's encoded pairs (8 bytes each).
func SimOmniReduceSparse(c Cluster, inputs []*tensor.COO, cfg protocol.Config, opts OmniOpts) (*OmniRun, error) {
	c.Workers = len(inputs)
	cfg = fit(c, cfg)
	ms := make([]*protocol.SparseWorkerMachine, len(inputs))
	var copyBytes float64
	for w, in := range inputs {
		m, err := protocol.NewSparseWorkerMachine(cfg, w, simTid, in)
		if err != nil {
			return nil, fmt.Errorf("simproto: %w", err)
		}
		ms[w] = m
		copyBytes = max(copyBytes, float64(8*in.Len()))
	}
	run := runOmni(c, cfg, opts, copyBytes, func(w int, eb *protocol.EmitBuf) protocol.WorkerOp {
		ms[w].Start(eb)
		return ms[w]
	})
	for _, m := range ms {
		run.SparseResults = append(run.SparseResults, m.Result())
	}
	return run, nil
}

// runOmni is the shared discrete-event driver: it wires worker and
// aggregator machines onto netsim nodes, routes their emits as simulated
// messages, and arms virtual-time retransmission timers from the worker
// machines' deadline requests. start builds worker w's machine, of either
// format, and starts it, appending its first packets to eb.
func runOmni(c Cluster, cfg protocol.Config, opts OmniOpts, copyBytes float64, start func(w int, eb *protocol.EmitBuf) protocol.WorkerOp) *OmniRun {
	n := netsim.NewNet(c.Latency, c.Faults)
	N := c.Workers
	nsPerSec := float64(time.Second)

	workers := make([]*netsim.Node, N)
	for w := 0; w < N; w++ {
		workers[w] = n.AddNode(w, c.WorkerBW, c.WorkerBW)
		workers[w].CPUPerMsg = c.CPUPerMsg
		if !opts.NoCopy {
			workers[w].CopyBW = c.CopyBW
		}
	}
	aggIDs := cfg.Aggregators
	aggCPU := c.CPUPerMsg
	if opts.SwitchAgg {
		aggCPU = 50e-9
	}
	if !c.Colocated {
		for _, id := range aggIDs {
			n.AddNode(id, c.AggBW, c.AggBW).CPUPerMsg = aggCPU
		}
	}

	wm := make([]protocol.WorkerOp, N)
	am := make(map[int]*protocol.AggregatorMachine, len(aggIDs))
	for _, id := range aggIDs {
		am[id] = protocol.NewAggregatorMachine(cfg, id)
	}

	now := func() time.Duration { return time.Duration(n.Sim.Now() * nsPerSec) }

	// One emit buffer for the whole run: handlers run one machine call at
	// a time and route (consume) its emits before returning, so the buffer
	// is free again before the next event fires.
	eb := &protocol.EmitBuf{}

	// Pooled in-flight packet copies (see the file comment). Dropped
	// messages simply never return their shell — bounded garbage on lossy
	// runs, zero on reliable ones.
	var pktFree []*simPkt
	clone := func(e *protocol.Emit) *simPkt {
		var sp *simPkt
		if k := len(pktFree); k > 0 {
			sp = pktFree[k-1]
			pktFree[k-1] = nil
			pktFree = pktFree[:k-1]
		} else {
			sp = &simPkt{}
		}
		if e.Packet != nil {
			sp.data = wire.CopyPacketInto(&sp.p, sp.data, e.Packet)
			if sp.p.DType == wire.DTypeF16 {
				// The fabric carries what the wire encodes: binary16.
				for i, v := range sp.data {
					sp.data[i] = wire.F16ToF32(wire.F16FromF32(v))
				}
			}
			sp.msg = protocol.Msg{Dense: &sp.p}
		} else {
			wire.CopySparsePacketInto(&sp.sp, e.Sparse)
			sp.msg = protocol.Msg{Sparse: &sp.sp}
		}
		return sp
	}
	recycle := func(sp *simPkt) { pktFree = append(pktFree, sp) }

	// mirrorOf is the doomed aggregator's standby machine on failover runs.
	var mirrorOf int
	var mirror *protocol.AggregatorMachine
	route := func(src int, emits []protocol.Emit) {
		if mirror != nil && src == mirrorOf {
			if e := protocol.Committed(emits); e != nil {
				mirror.AdoptResult(e.Packet)
			}
		}
		nd := n.Node(src)
		for i := range emits {
			nd.Send(emits[i].Dst, float64(emits[i].Size), clone(&emits[i]))
		}
	}

	// tick counts one event and, on FailoverAtEvent runs, kills the doomed
	// aggregator just before the chosen one is handled.
	events := 0
	var kill func()
	tick := func() {
		events++
		if events == opts.FailoverAtEvent {
			kill()
		}
	}

	done := 0
	finishedAt := 0.0
	workerDone := make([]bool, N)
	checkDone := func(w int) {
		if !workerDone[w] && wm[w].Done() {
			workerDone[w] = true
			done++
			if done == N {
				finishedAt = n.Sim.Now()
			}
		}
	}

	// Retransmission timers (unreliable mode): each worker machine
	// publishes its earliest deadline; we keep at most one useful pending
	// wakeup per worker. Spurious wakeups are harmless — HandleTimeout
	// re-checks every stream's deadline.
	armed := make([]float64, N) // earliest pending wakeup; 0 = none
	var arm func(w int)
	arm = func(w int) {
		d, ok := wm[w].NextTimeout()
		if !ok {
			return
		}
		t := float64(d) / nsPerSec
		if armed[w] != 0 && armed[w] >= n.Sim.Now() && armed[w] <= t {
			return // an earlier-or-equal wakeup is already pending
		}
		armed[w] = t
		n.Sim.At(t, func() {
			if armed[w] == t {
				armed[w] = 0
			}
			tick()
			// This wakeup was armed for the machine-clock deadline d; the
			// float64 seconds<->Duration round trip can land the virtual
			// clock a nanosecond short of it, which would make the machine
			// judge the deadline not yet due and the driver re-arm at the
			// same frozen instant forever. Clamp the clock up to d.
			tm := now()
			if tm < d {
				tm = d
			}
			eb.Reset()
			if err := wm[w].HandleTimeout(tm, eb); err != nil {
				panic(fmt.Sprintf("simproto: worker %d: %v", w, err))
			}
			route(w, eb.Emits())
			arm(w)
		})
	}

	runAgg := func(nodeID int, msg protocol.Msg) {
		m := am[nodeID]
		if m == nil {
			return // dead (failed-over) or not-yet-activated node: drop
		}
		eb.Reset()
		if err := m.HandlePacket(msg, eb); err != nil {
			panic(fmt.Sprintf("simproto: aggregator %d: %v", nodeID, err))
		}
		route(nodeID, eb.Emits())
	}

	for w := 0; w < N; w++ {
		w := w
		workers[w].Handler = func(m netsim.Message) {
			tick()
			sp := m.Payload.(*simPkt)
			if t := sp.msg.Type(); t == wire.TypeData || t == wire.TypeSparseData {
				runAgg(w, sp.msg) // colocated aggregator shard
				recycle(sp)
				return
			}
			eb.Reset()
			if err := wm[w].HandleMsg(sp.msg, now(), eb); err != nil {
				panic(fmt.Sprintf("simproto: worker %d: %v", w, err))
			}
			route(w, eb.Emits())
			recycle(sp)
			checkDone(w)
			arm(w)
		}
	}
	if !c.Colocated {
		for _, id := range aggIDs {
			id := id
			n.Node(id).Handler = func(m netsim.Message) {
				tick()
				sp := m.Payload.(*simPkt)
				runAgg(id, sp.msg)
				recycle(sp)
			}
		}
	}

	// servedBy maps aggregator positions to the node currently serving
	// them; failover swaps the failed position to the standby.
	servedBy := append([]int(nil), aggIDs...)
	if opts.FailoverAtEvent > 0 {
		if c.Colocated {
			panic("simproto: failover requires dedicated aggregator nodes")
		}
		if cfg.Reliable {
			panic("simproto: failover requires an unreliable config (reliable mode has no replay machinery)")
		}
		if opts.FailAggIndex < 0 || opts.FailAggIndex >= len(aggIDs) {
			panic(fmt.Sprintf("simproto: FailAggIndex %d out of range (%d aggregators)", opts.FailAggIndex, len(aggIDs)))
		}
		standby := N + len(aggIDs)
		nd := n.AddNode(standby, c.AggBW, c.AggBW)
		nd.CPUPerMsg = aggCPU
		nd.Handler = func(m netsim.Message) {
			tick()
			sp := m.Payload.(*simPkt)
			runAgg(standby, sp.msg)
			recycle(sp)
		}
		mirrorOf, mirror = servedBy[opts.FailAggIndex], protocol.NewAggregatorMachine(cfg, standby)
		kill = func() {
			if mirror == nil {
				return // already failed over
			}
			// Kill: the dead node drops everything still in flight to it,
			// exactly like the live chaos harness cutting the process.
			dead := servedBy[opts.FailAggIndex]
			n.Node(dead).Handler = func(m netsim.Message) { recycle(m.Payload.(*simPkt)) }
			// Handoff: the standby machine holds every result the dead one
			// committed (output-commit keeps a live standby on a FIFO link
			// as current as this; fast-forward covers a lossy one).
			am[standby], mirror = mirror, nil
			delete(am, dead)
			servedBy[opts.FailAggIndex] = standby
			// Rebind: every worker re-resolves AggregatorFor against the
			// new list and replays its unacknowledged rounds.
			for w := 0; w < N; w++ {
				eb.Reset()
				wm[w].Rebind(servedBy, now(), eb)
				route(w, eb.Emits())
				arm(w)
			}
		}
	}

	// Launch: staging copy plus bootstrap packets for every stream.
	copyFinished := 0.0
	for w := 0; w < N; w++ {
		workers[w].Copy(copyBytes, func() {
			if t := n.Sim.Now(); t > copyFinished {
				copyFinished = t
			}
		})
		eb.Reset()
		wm[w] = start(w, eb)
		route(w, eb.Emits())
		checkDone(w)
		arm(w)
	}

	n.Sim.Run()
	if copyFinished > finishedAt {
		finishedAt = copyFinished
	}

	run := &OmniRun{Time: finishedAt, Events: events, WorkerStats: make([]protocol.WorkerStats, N), Faults: n.Faults.Counts()}
	for w := 0; w < N; w++ {
		run.WorkerStats[w] = wm[w].Stats()
	}
	for _, id := range servedBy {
		run.AggStats = append(run.AggStats, am[id].Stats())
	}
	return run
}

// SimSwitchML models the SwitchML-style dense streaming aggregation
// (§6.1.1's SwitchML* server-based baseline): the same slot pipeline with
// zero-block elision disabled, whatever cfg.ForceDense says.
func SimSwitchML(c Cluster, tensorBytes float64, cfg protocol.Config, opts OmniOpts) float64 {
	cfg.ForceDense = true
	blockBytes := 1024.0
	blocks := int(tensorBytes / blockBytes)
	if blocks < 1 {
		blocks = 1
	}
	spec := &BlockSpec{Blocks: blocks, BlockBytes: blockBytes,
		PerWorker: make([]*tensor.Bitmap, c.Workers)}
	for w := range spec.PerWorker {
		spec.PerWorker[w] = tensor.NewBitmap(blocks)
	}
	return SimOmniReduce(c, spec, cfg, opts)
}
