package simproto_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/core"
	"omnireduce/internal/netsim/simproto"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
)

// Failover drift tier: killing an aggregator mid-collective and failing
// the position over to a standby must not move a single result bit, on
// either substrate. Both build the successor the same way — a fresh
// machine that adopted the results the dead one committed, and nothing
// else: the simulator from the machine's Commit emits directly, the live
// cluster from real mirror frames, a real kill, and in-band view adoption
// — and both must land on the same bit-exact deterministic dense sum as
// an undisturbed run.

// refDenseSum is the worker-ordered reference sum DeterministicOrder
// contracts to reproduce exactly.
func refDenseSum(inputs [][]float32) []float32 {
	out := make([]float32, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			out[i] += v
		}
	}
	return out
}

func assertBitIdentical(t *testing.T, name string, results [][]float32, want []float32) {
	t.Helper()
	for w, res := range results {
		if len(res) != len(want) {
			t.Fatalf("%s: worker %d result length %d != %d", name, w, len(res), len(want))
		}
		for i, v := range res {
			if v != want[i] {
				t.Fatalf("%s: worker %d elem %d: %g != %g (failover moved a bit)", name, w, i, v, want[i])
			}
		}
	}
}

// liveFailoverRun executes the live chaos-kill scenario: three workers,
// two checkpointing primaries, one standby; the stream-1 primary falls
// silent after its first checkpoint frame and is killed once the standby
// holds that frame, the standby is activated into epoch 2, and the
// workers adopt the view in-band.
func liveFailoverRun(t *testing.T, inputs [][]float32, bs int) [][]float32 {
	t.Helper()
	const (
		aggA    = 3
		aggB    = 4
		standby = 5
	)
	W := len(inputs)
	view1 := protocol.View{Epoch: 1, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, aggB}}
	cfg := core.Config{
		Workers:            W,
		Aggregators:        []int{aggA, aggB},
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          bs,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  3 * time.Millisecond,
		View:               &view1,
	}

	nw := transport.NewNetwork(W, 4096)
	// The doomed primary gets exactly one message out: its first
	// checkpoint frame to the standby. Results to workers are blackholed
	// from the start and everything else after that frame, so the kill
	// point is defined by the protocol, not by who wins a race: under the
	// output-commit rule the first step's results have reached no worker,
	// and the collective cannot finish without the standby.
	doomed := transport.NewChaosFabric(transport.Scenario{Phases: []transport.Phase{
		{Packets: 1, Partitions: []transport.Partition{{From: aggB, To: 0}, {From: aggB, To: 1}, {From: aggB, To: 2}}},
		{Partitions: []transport.Partition{{From: aggB, To: -1}}},
	}})
	var aggWG sync.WaitGroup
	conns := map[int]transport.Conn{}
	startAgg := func(id int, c core.Config) *core.Aggregator {
		conn := nw.AddNode(id)
		if id == aggB {
			conn = doomed.Wrap(conn)
		}
		conns[id] = conn
		a, err := core.NewAggregator(conn, c)
		if err != nil {
			t.Fatal(err)
		}
		aggWG.Add(1)
		go func() {
			defer aggWG.Done()
			if err := a.Run(); err != nil {
				t.Errorf("aggregator %d: %v", id, err)
			}
		}()
		return a
	}
	primCfg := cfg
	primCfg.CheckpointPeers = []int{standby}
	startAgg(aggA, primCfg)
	startAgg(aggB, primCfg)
	sbCfg := cfg
	sbCfg.Standby = true
	sb := startAgg(standby, sbCfg)

	work := make([][]float32, W)
	workers := make([]*core.Worker, W)
	for w := range inputs {
		work[w] = append([]float32(nil), inputs[w]...)
		wk, err := core.NewWorker(nw.Conn(w), cfg)
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

	deadline := time.Now().Add(10 * time.Second)
	for sb.CheckpointsFrom(aggB) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never received a checkpoint from the doomed primary")
		}
		time.Sleep(time.Millisecond)
	}
	conns[aggB].Close() // kill: datagrams to the dead node silently vanish
	if err := sb.Activate(protocol.View{Epoch: 2, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, standby}}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("live collectives never completed after failover")
	}
	for _, wk := range workers {
		wk.Close()
	}
	for id, c := range conns {
		if id != aggB {
			c.Close()
		}
	}
	aggWG.Wait()
	if sb.Stats.RoundsCompleted == 0 {
		t.Fatal("live standby completed no rounds: the kill happened after the collective finished")
	}
	return work
}

func TestFailoverDriftLiveVsSim(t *testing.T) {
	const W, blocks, bs = 3, 64, 16
	inputs := blockSparseInputs(W, blocks, bs, 0.3, 4242)
	want := refDenseSum(inputs)

	pcfg := protocol.Config{
		BlockSize:          bs,
		FusionWidth:        4,
		Streams:            2,
		DeterministicOrder: true,
		// Mirror the simulator's pinned fixed-cadence retransmission (see
		// OmniOpts.protoConfig): virtual-time RTTs are microseconds.
		RetransmitTimeout: time.Millisecond,
		RetransmitBackoff: 1,
		RetransmitJitter:  -1,
	}
	opts := simproto.OmniOpts{FusionWidth: 4, Streams: 2, Lossy: true}
	cl := simproto.Testbed10G(W, 2)

	// Baseline: undisturbed lossy-mode run.
	base := simproto.SimOmniReduceTensors(cl, inputs, pcfg, opts)
	if base.Time <= 0 {
		t.Fatalf("baseline sim did not complete: time %g", base.Time)
	}
	assertBitIdentical(t, "sim-baseline", base.Results, want)

	// Failover at several points of the collective: early (bootstrap
	// rounds in flight) and late (most rounds already archived).
	for _, frac := range []float64{0.2, 0.5} {
		fopts := opts
		fopts.FailoverAt = base.Time * frac
		fopts.FailAggIndex = 1
		run := simproto.SimOmniReduceTensors(cl, inputs, pcfg, fopts)
		if run.Time <= 0 {
			t.Fatalf("failover sim (frac %.1f) did not complete: time %g", frac, run.Time)
		}
		if run.Time <= fopts.FailoverAt {
			t.Fatalf("failover sim (frac %.1f) finished at %g before the kill at %g: not a mid-collective kill",
				frac, run.Time, fopts.FailoverAt)
		}
		assertBitIdentical(t, "sim-failover", run.Results, want)
		// The failed position's stats come from the machine that finished
		// serving it: the promoted standby.
		if run.AggStats[1].RoundsCompleted == 0 {
			t.Fatalf("failover sim (frac %.1f): standby completed no rounds", frac)
		}
	}

	// The live cluster under a real mid-collective kill must land on the
	// same bits.
	live := liveFailoverRun(t, inputs, bs)
	assertBitIdentical(t, "live-failover", live, want)
}

// TestFailoverSimEveryEvent puts the kill before every event of a small
// versioned collective in turn — each delivery to a worker or an
// aggregator, each retransmission wakeup, on a fabric that also loses
// packets — for either aggregator. Every run completes, with the exact sum.
func TestFailoverSimEveryEvent(t *testing.T) {
	const W, blocks, bs = 3, 24, 4
	inputs := blockSparseInputs(W, blocks, bs, 0.3, 99)
	want := refDenseSum(inputs)
	pcfg := protocol.Config{
		BlockSize:          bs,
		FusionWidth:        2,
		Streams:            2,
		DeterministicOrder: true,
		RetransmitTimeout:  time.Millisecond,
		RetransmitBackoff:  1,
		RetransmitJitter:   -1,
	}
	opts := simproto.OmniOpts{FusionWidth: 2, Streams: 2, Lossy: true}
	for _, loss := range []float64{0, 0.05} {
		cl := simproto.Testbed10G(W, 2)
		cl.Faults = transport.Scenario{Seed: 7, Phases: []transport.Phase{{Drop: loss}}}
		base := simproto.SimOmniReduceTensors(cl, inputs, pcfg, opts)
		if base.Time <= 0 || base.Events < 50 {
			t.Fatalf("loss %g: baseline took %g s and %d events", loss, base.Time, base.Events)
		}
		assertBitIdentical(t, "sim-baseline", base.Results, want)
		var standbyRounds int64
		for idx := 0; idx < 2; idx++ {
			for k := 1; k <= base.Events; k++ {
				fopts := opts
				fopts.FailoverAtEvent, fopts.FailAggIndex = k, idx
				run := simproto.SimOmniReduceTensors(cl, inputs, pcfg, fopts)
				name := fmt.Sprintf("loss %g, aggregator %d killed before event %d of %d", loss, idx, k, base.Events)
				if run.Time <= 0 {
					t.Fatalf("%s: did not complete", name)
				}
				assertBitIdentical(t, name, run.Results, want)
				standbyRounds += run.AggStats[idx].RoundsCompleted
			}
		}
		if standbyRounds == 0 {
			t.Fatalf("loss %g: no standby ever completed a round", loss)
		}
	}
}
