package simproto_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/core"
	"omnireduce/internal/netsim/simproto"
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
)

// Substrate-equivalence drift test: the live channel cluster and the
// discrete-event simulator drive the same protocol machines, so for
// identical inputs and configuration they must produce identical
// per-worker packet/block/byte counts, identical aggregator round counts,
// and bit-identical results. Any divergence means one substrate's driver
// drifted from the shared protocol engine.

// blockSparseInputs builds per-worker inputs where each block is zero with
// probability sparsity, deterministically from seed.
func blockSparseInputs(workers, blocks, bs int, sparsity float64, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, workers)
	for w := range out {
		d := make([]float32, blocks*bs)
		for b := 0; b < blocks; b++ {
			if rng.Float64() < sparsity {
				continue
			}
			for i := 0; i < bs; i++ {
				d[b*bs+i] = float32(rng.NormFloat64())
			}
		}
		out[w] = d
	}
	return out
}

// liveRun executes one AllReduce per worker over the in-process channel
// transport — every endpoint behind fabric, when it is not nil — and
// returns the reduced tensors plus both sides' counters.
func liveRun(t *testing.T, cfg core.Config, inputs [][]float32, fabric *transport.ChaosFabric) ([][]float32, []protocol.WorkerStats, []core.AggStats) {
	t.Helper()
	nw := transport.NewNetwork(cfg.Workers, 4096)
	wrap := func(c transport.Conn) transport.Conn {
		if fabric == nil {
			return c
		}
		return fabric.Wrap(c)
	}
	var aggs []*core.Aggregator
	var aggWG sync.WaitGroup
	var conns []transport.Conn
	for _, id := range cfg.Aggregators {
		conn := wrap(nw.AddNode(id))
		conns = append(conns, conn)
		a, err := core.NewAggregator(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, a)
		aggWG.Add(1)
		go func(a *core.Aggregator) {
			defer aggWG.Done()
			if err := a.Run(); err != nil {
				t.Errorf("aggregator: %v", err)
			}
		}(a)
	}
	work := make([][]float32, len(inputs))
	workers := make([]*core.Worker, len(inputs))
	for w := range inputs {
		work[w] = append([]float32(nil), inputs[w]...)
		conn := wrap(nw.Conn(w))
		conns = append(conns, conn)
		wk, err := core.NewWorker(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		workers[w] = wk
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := workers[w].AllReduce(work[w]); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	var ws []protocol.WorkerStats
	for _, wk := range workers {
		s := wk.Stats.Snapshot()
		ws = append(ws, protocol.WorkerStats{
			BlocksSent:    s.BlocksSent,
			BlocksSkipped: s.BlocksSkipped,
			PacketsSent:   s.PacketsSent,
			BytesSent:     s.BytesSent,
			Retransmits:   s.Retransmits,
			AcksSent:      s.AcksSent,
			ResultsRecvd:  s.ResultsRecvd,
			StaleResults:  s.StaleResults,
			Backoffs:      s.Backoffs,
		})
	}
	// Worker.Close releases the persistent per-op driver states (decode
	// states return to their pool), which the grid's leak audit checks.
	for _, wk := range workers {
		wk.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	aggWG.Wait()
	var as []core.AggStats
	for _, a := range aggs {
		as = append(as, a.Stats)
	}
	return work, ws, as
}

// slotEventKey identifies one machine-emitted event occurrence modulo
// time: the multiset of these must be identical between substrates.
type slotEventKey struct {
	ev    obs.Event
	node  int32
	tid   uint32
	slot  uint16
	round uint8
	arg   int64
}

// machineMultiset reduces a flight recorder's contents to the multiset of
// machine-emitted slot events (obs.MachineEvents kinds only — driver
// events like EvPacketSent legitimately differ between substrates).
func machineMultiset(fr *obs.FlightRecorder) map[slotEventKey]int {
	machine := map[obs.Event]bool{}
	for _, ev := range obs.MachineEvents {
		machine[ev] = true
	}
	m := map[slotEventKey]int{}
	for _, r := range fr.Records() {
		if !machine[r.Ev] {
			continue
		}
		m[slotEventKey{r.Ev, r.Node, r.Tid, r.Slot, r.Round, r.Arg}]++
	}
	return m
}

// diffEventMultisets returns human-readable lines for every key whose
// multiplicity differs between the live and sim multisets.
func diffEventMultisets(live, sim map[slotEventKey]int) []string {
	var out []string
	for k, n := range live {
		if sim[k] != n {
			out = append(out, fmt.Sprintf("%v node=%d tid=%d slot=%d round=%d arg=%d: live %d sim %d",
				k.ev, k.node, k.tid, k.slot, k.round, k.arg, n, sim[k]))
		}
	}
	for k, n := range sim {
		if _, ok := live[k]; !ok {
			out = append(out, fmt.Sprintf("%v node=%d tid=%d slot=%d round=%d arg=%d: live 0 sim %d",
				k.ev, k.node, k.tid, k.slot, k.round, k.arg, n))
		}
	}
	sort.Strings(out)
	return out
}

func TestSubstrateEquivalence(t *testing.T) {
	// Run the whole grid with tracing enabled and a pool-leak audit
	// bracketing it: observability must be a pure observer — substrate
	// equivalence has to hold bit for bit with a tracer installed, the
	// live side must emit trace events, and teardown must return every
	// pooled buffer.
	tracer := obs.NewCountingTracer()
	prev := obs.SetTracer(tracer)
	defer obs.SetTracer(prev)
	audit := obs.StartLeakAudit()

	// Lossy rows run Algorithm 2 over a fabric that drops: the live
	// cluster behind a ChaosFabric, the simulator on the same Scenario.
	// Both take each message's fate from one transport.FaultModel, keyed
	// by directed link and the message's position on it, so they drop the
	// same messages for as long as every link carries the same message
	// sequence on both substrates.
	//
	// The protocol alone orders a link only while each link carries one
	// stream (Streams == number of aggregators): a stream is
	// stop-and-wait. Rows with several streams per link are left out on
	// purpose — their packets interleave in the order results happen to
	// arrive, wall-clock order live and virtual-time order simulated, so
	// the k-th message of a link is a different packet on each substrate.
	//
	// One stream per link is still not enough under random per-link loss,
	// because Algorithm 2 couples the workers' timers: a loss stalls the
	// round for every worker of the stream, and all their timers expire
	// together. Whether the retransmission that repairs the round reaches
	// the aggregator before or after a peer's needless one decides between
	// a filtered duplicate and a replay — a wall-clock race live, a fixed
	// order simulated — and the replay shifts that link's later fates.
	// Random-loss rows (exact false) therefore hold the substrates to what
	// the protocol fixes whatever that order: bit-identical results and
	// the fresh-traffic counters (fixedStats). Lockstep rows (exact true)
	// drop the same positions on every link, so each stalled worker is
	// missing a message of its own, the repair does not depend on arrival
	// order, and every counter and every fate must match. The
	// retransmission timeout is far above any round trip on either
	// fabric, so only a loss fires it.
	type faults struct {
		name  string
		sc    transport.Scenario
		exact bool
	}
	uniform := &faults{name: "uniform5", sc: transport.Scenario{Seed: 5, Phases: []transport.Phase{{Drop: 0.05}}}}
	burst := &faults{name: "burst", sc: transport.Scenario{Seed: 9, Phases: []transport.Phase{
		{Burst: &transport.Burst{PEnter: 0.05, PExit: 0.5, DropBad: 0.9}},
	}}}
	// Every link loses its third message, then its sixth and seventh:
	// round 2's data and, after its repair, round 2's result; later the
	// same twice in a row.
	lockstep := &faults{name: "lockstep", exact: true, sc: transport.Scenario{Phases: []transport.Phase{
		{Packets: 2}, {Packets: 1, Drop: 1}, {Packets: 2}, {Packets: 2, Drop: 1}, {},
	}}}
	const lossyTimeout = 100 * time.Millisecond

	const blocks, bs = 48, 16
	grid := []struct {
		workers  int
		aggs     int
		sparsity float64
		fusion   int
		streams  int
		faults   *faults // nil: reliable mode on a loss-free fabric
	}{
		{workers: 2, aggs: 1, sparsity: 0, fusion: 1, streams: 1},
		{workers: 2, aggs: 1, sparsity: 0.5, fusion: 4, streams: 2},
		{workers: 3, aggs: 1, sparsity: 0.9, fusion: 4, streams: 2},
		{workers: 3, aggs: 2, sparsity: 0.5, fusion: 8, streams: 4},
		{workers: 4, aggs: 1, sparsity: 0.7, fusion: 2, streams: 3},
		// Sparse bootstrap: 32 first-in-column blocks per worker, nearly
		// all zero, so round 0 is mostly header-only packets and columns
		// nobody contributed to.
		{workers: 3, aggs: 1, sparsity: 0.95, fusion: 8, streams: 4},
		{workers: 2, aggs: 1, sparsity: 0.5, fusion: 2, streams: 1, faults: uniform},
		{workers: 3, aggs: 2, sparsity: 0.3, fusion: 4, streams: 2, faults: uniform},
		{workers: 2, aggs: 2, sparsity: 0, fusion: 2, streams: 2, faults: burst},
		{workers: 3, aggs: 1, sparsity: 0.7, fusion: 1, streams: 1, faults: burst},
		{workers: 2, aggs: 1, sparsity: 0.5, fusion: 2, streams: 1, faults: lockstep},
		{workers: 3, aggs: 2, sparsity: 0.3, fusion: 4, streams: 2, faults: lockstep},
	}
	for i, g := range grid {
		name := fmt.Sprintf("w%d_a%d_s%.0f%%_f%d", g.workers, g.aggs, g.sparsity*100, g.fusion)
		if g.faults != nil {
			name += "_" + g.faults.name
		}
		t.Run(name, func(t *testing.T) {
			inputs := blockSparseInputs(g.workers, blocks, bs, g.sparsity, int64(1000+i))

			// Live cluster: dedicated aggregator nodes after the workers,
			// matching the simulator's non-colocated layout.
			var aggIDs []int
			for a := 0; a < g.aggs; a++ {
				aggIDs = append(aggIDs, g.workers+a)
			}
			cfg := core.Config{
				Workers:            g.workers,
				Aggregators:        aggIDs,
				BlockSize:          bs,
				FusionWidth:        g.fusion,
				Streams:            g.streams,
				Reliable:           g.faults == nil,
				DeterministicOrder: true,
				// Shard the live aggregators: equivalence must hold between
				// the simulator's single machine and the live driver's
				// per-slot shard machines (their stats sum field for field).
				AggShards: 4,
			}
			// Record each substrate's machine-emitted slot events with its
			// own flight recorder (the counting tracer keeps accumulating
			// underneath): the machines are the single shared protocol
			// implementation, so the two streams must be identical as
			// (event, node, tid, slot, round) multisets.
			pcfg := protocol.Config{
				BlockSize:          bs,
				FusionWidth:        g.fusion,
				Streams:            g.streams,
				DeterministicOrder: true,
			}
			cl := simproto.Testbed10G(g.workers, g.aggs)
			var fabric *transport.ChaosFabric
			if g.faults != nil {
				fabric = transport.NewChaosFabric(g.faults.sc)
				cl.Faults = g.faults.sc
				cfg.RetransmitTimeout, cfg.RetransmitBackoff, cfg.RetransmitJitter = lossyTimeout, 1, -1
				pcfg.RetransmitTimeout, pcfg.RetransmitBackoff, pcfg.RetransmitJitter = lossyTimeout, 1, -1
			}
			liveFR := obs.NewFlightRecorder(-1, 8192)
			obs.SetTracer(obs.MultiTracer{tracer, liveFR})
			liveRes, liveWS, liveAS := liveRun(t, cfg, inputs, fabric)

			simFR := obs.NewFlightRecorder(-1, 8192)
			obs.SetTracer(obs.MultiTracer{tracer, simFR})
			sim := simproto.SimOmniReduceTensors(cl, inputs, pcfg,
				simproto.OmniOpts{FusionWidth: g.fusion, Streams: g.streams, Lossy: g.faults != nil})
			obs.SetTracer(tracer)

			if sim.Time <= 0 {
				t.Fatalf("sim did not complete: time %g", sim.Time)
			}
			for w := 0; w < g.workers; w++ {
				for e := range liveRes[w] {
					if sim.Results[w][e] != liveRes[w][e] {
						t.Fatalf("worker %d elem %d: sim %v != live %v",
							w, e, sim.Results[w][e], liveRes[w][e])
					}
				}
			}
			if len(sim.AggStats) != len(liveAS) {
				t.Fatalf("aggregator count: sim %d live %d", len(sim.AggStats), len(liveAS))
			}
			if fabric != nil {
				live := fabric.Counts()
				if live.Dropped == 0 && live.BurstDrops == 0 || sim.Faults.Dropped == 0 && sim.Faults.BurstDrops == 0 {
					t.Errorf("%s dropped nothing (sim %+v, live %+v): the row exercises no recovery",
						g.faults.name, sim.Faults, live)
				}
				if !g.faults.exact {
					for w := range liveWS {
						if s, l := fixedStats(sim.WorkerStats[w]), fixedStats(liveWS[w]); s != l {
							t.Errorf("worker %d fresh traffic drifted:\n sim  %+v\n live %+v", w, s, l)
						}
					}
					for a := range liveAS {
						if s, l := fixedAggStats(sim.AggStats[a]), fixedAggStats(protocol.AggStats(liveAS[a])); s != l {
							t.Errorf("aggregator %d rounds drifted:\n sim  %+v\n live %+v", a, s, l)
						}
					}
					return
				}
				if live != sim.Faults {
					t.Errorf("fault decisions drifted:\n sim  %+v\n live %+v", sim.Faults, live)
				}
			}

			liveMS := machineMultiset(liveFR)
			if len(liveMS) == 0 {
				t.Error("live run recorded no machine-emitted slot events")
			}
			if d := diffEventMultisets(liveMS, machineMultiset(simFR)); len(d) > 0 {
				t.Errorf("machine event multisets drifted (%d keys):", len(d))
				for i, line := range d {
					if i >= 10 {
						t.Errorf("  ... and %d more", len(d)-10)
						break
					}
					t.Errorf("  %s", line)
				}
			}
			for w := range liveWS {
				if sim.WorkerStats[w] != liveWS[w] {
					t.Errorf("worker %d counters drifted:\n sim  %+v\n live %+v",
						w, sim.WorkerStats[w], liveWS[w])
				}
			}
			for a := range liveAS {
				if sim.AggStats[a] != protocol.AggStats(liveAS[a]) {
					t.Errorf("aggregator %d counters drifted:\n sim  %+v\n live %+v",
						a, sim.AggStats[a], liveAS[a])
				}
			}
		})
	}

	for _, ev := range []obs.Event{obs.EvOpBegin, obs.EvOpEnd, obs.EvPacketSent, obs.EvPacketRecvd, obs.EvPoolGet, obs.EvPoolPut} {
		if tracer.Count(ev) == 0 {
			t.Errorf("live runs emitted no %s trace events", ev)
		}
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Errorf("drift grid leaked pooled buffers: %v", obs.LeaksErr(leaks))
	}
}

// fixedStats keeps the worker counters Algorithm 2 fixes whatever order
// coupled retransmissions arrive in: the fresh traffic, one packet per
// round per stream, and the results that advanced a round. Retransmits,
// stale results and the bytes they carry depend on that order.
func fixedStats(s protocol.WorkerStats) protocol.WorkerStats {
	return protocol.WorkerStats{
		BlocksSent:    s.BlocksSent,
		BlocksSkipped: s.BlocksSkipped,
		PacketsSent:   s.PacketsSent - s.Retransmits,
		AcksSent:      s.AcksSent,
		ResultsRecvd:  s.ResultsRecvd,
	}
}

// fixedAggStats is fixedStats for an aggregator: its rounds, the blocks
// they summed and the results it multicast. Packets received, duplicates
// filtered and replays depend on the retransmissions' arrival order.
func fixedAggStats(s protocol.AggStats) protocol.AggStats {
	return protocol.AggStats{
		BlocksAggregated: s.BlocksAggregated,
		RoundsCompleted:  s.RoundsCompleted,
		ResultsSent:      s.ResultsSent,
	}
}

// TestNegativeZeroSumLiveVsSim pins what the aggregator's accumulator does
// with its first contribution: it is copied, not added to zeros, so an
// element that is -0.0 on every worker sums to -0.0 (the IEEE sum; adding
// into +0.0 would give +0.0) — on both substrates alike, since they share
// the accumulator. Two workers, so arrival order cannot move a bit.
func TestNegativeZeroSumLiveVsSim(t *testing.T) {
	const W, blocks, bs, negAt = 2, 24, 16, 5
	negZero := float32(math.Copysign(0, -1))
	inputs := blockSparseInputs(W, blocks, bs, 0, 77)
	for _, in := range inputs {
		for b := 0; b < blocks; b++ {
			in[b*bs+negAt] = negZero
		}
	}
	cfg := core.Config{Workers: W, Aggregators: []int{W}, BlockSize: bs, FusionWidth: 4, Streams: 2, Reliable: true}
	live, _, _ := liveRun(t, cfg, inputs, nil)
	sim := simproto.SimOmniReduceTensors(simproto.Testbed10G(W, 1), inputs, protocol.Config{
		BlockSize: bs, FusionWidth: 4, Streams: 2, Reliable: true,
	}, simproto.OmniOpts{FusionWidth: 4, Streams: 2})
	for w := 0; w < W; w++ {
		for e, v := range live[w] {
			if math.Float32bits(v) != math.Float32bits(sim.Results[w][e]) {
				t.Fatalf("worker %d elem %d: live %v (%#x) != sim %v (%#x)", w, e,
					v, math.Float32bits(v), sim.Results[w][e], math.Float32bits(sim.Results[w][e]))
			}
			if e%bs == negAt && math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("worker %d elem %d: -0.0 + -0.0 = %v (%#x), want -0.0", w, e, v, math.Float32bits(v))
			}
		}
	}
}
