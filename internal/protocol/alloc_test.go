package protocol

import (
	"fmt"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Steady-state allocation pins for the machines themselves. The protocol
// machines promise zero-allocation rounds once their pooled state has
// warmed up: slot and stream buffers are generation-recycled, accumulator
// storage is carved from per-slot arenas, and emitted packets are reusable
// shells. These tests drive worker and aggregator machines round by round
// with no transport underneath, so any allocation observed comes from the
// machines (or the EmitBuf, which is part of the same contract).

// steadyHarness wires W worker machines to one aggregator machine in
// memory and runs complete rounds synchronously. Emits are consumed
// immediately — exactly the shell-ownership discipline real drivers
// follow — so no copies are made anywhere on the hot path.
type steadyHarness struct {
	t       *testing.T
	wms     []*WorkerMachine
	am      *AggregatorMachine
	results []*wire.Packet // pending result shell per worker
	ebW     EmitBuf
	ebA     EmitBuf
}

func newSteadyHarness(t *testing.T, workers int, reliable bool) *steadyHarness {
	t.Helper()
	cfg := Config{
		Workers:            workers,
		Aggregators:        []int{aggNode},
		Reliable:           reliable,
		DeterministicOrder: true,
		BlockSize:          4,
		FusionWidth:        1,
		Streams:            1,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	const blocks = 4096 // far more rounds than any test consumes
	h := &steadyHarness{t: t, am: NewAggregatorMachine(cfg, aggNode),
		results: make([]*wire.Packet, workers)}
	h.am.Presize(cfg.Streams, 4)
	data := make([]float32, blocks*cfg.BlockSize)
	for i := range data {
		data[i] = float32(i%7) + 1 // fully dense: every block is sent
	}
	for w := 0; w < workers; w++ {
		m := NewWorkerMachine(cfg, w, 1)
		h.wms = append(h.wms, m)
		h.ebW.Reset()
		m.Start(NewDenseView(data, cfg.BlockSize, cfg.ForceDense), 0, &h.ebW)
		h.feedAgg()
	}
	return h
}

// feedAgg hands every pending worker emit to the aggregator and records
// the result shells the aggregator answers with.
func (h *steadyHarness) feedAgg() {
	for _, e := range h.ebW.Emits() {
		h.ebA.Reset()
		if err := h.am.HandlePacket(Msg{Dense: e.Packet}, &h.ebA); err != nil {
			h.t.Fatalf("aggregator: %v", err)
		}
		for _, ea := range h.ebA.Emits() {
			h.results[ea.Dst] = ea.Packet
		}
	}
}

// step runs one complete round: every worker consumes its pending result
// and contributes its next block; the aggregator reduces and responds.
func (h *steadyHarness) step() {
	for w := range h.wms {
		res := h.results[w]
		if res == nil {
			h.t.Fatal("steady harness: no pending result")
		}
		h.ebW.Reset()
		if err := h.wms[w].HandlePacket(res, 0, &h.ebW); err != nil {
			h.t.Fatalf("worker %d: %v", w, err)
		}
		h.feedAgg()
	}
}

// TestSteadyStateZeroAllocs pins worker HandlePacket and aggregator
// HandlePacket (including finishRound) at zero allocations per round
// after warmup, and asserts the per-round figure does not grow with the
// worker count (the slope of allocations over fan-in is flat).
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	cases := []struct {
		workers  int
		reliable bool
	}{
		{2, true},
		{8, true},
		{2, false}, // versioned (lossy) rounds must be allocation-free too
	}
	perRound := make(map[int]float64)
	for _, tc := range cases {
		name := fmt.Sprintf("workers=%d_reliable=%v", tc.workers, tc.reliable)
		t.Run(name, func(t *testing.T) {
			h := newSteadyHarness(t, tc.workers, tc.reliable)
			for i := 0; i < 64; i++ {
				h.step() // warm pools, arenas, and emit buffers to steady caps
			}
			got := testing.AllocsPerRun(256, h.step)
			if tc.reliable {
				perRound[tc.workers] = got
			}
			if got != 0 {
				t.Fatalf("steady-state round allocates %.1f objects, want 0", got)
			}
		})
	}
	if perRound[8] > perRound[2] {
		t.Fatalf("allocations grow with worker count: 8w=%.1f > 2w=%.1f",
			perRound[8], perRound[2])
	}
}

// TestWorkerMachinePoolReuse verifies the machine pool actually recycles:
// acquiring, running, and recycling a machine keeps the pool's get/put
// counters balanced.
func TestWorkerMachinePoolReuse(t *testing.T) {
	cfg := Config{Workers: 1, Aggregators: []int{aggNode}, Reliable: true,
		BlockSize: 4, FusionWidth: 1, Streams: 1}.WithDefaults()
	g0, p0 := WorkerMachinePoolBalance()
	var eb EmitBuf
	for i := 0; i < 4; i++ {
		m := GetWorkerMachine(cfg, 0, uint32(i+1))
		eb.Reset()
		m.Start(NewDenseView([]float32{1, 2, 3, 4}, 4, false), 0, &eb)
		m.Recycle()
	}
	g1, p1 := WorkerMachinePoolBalance()
	if g1-g0 != 4 || p1-p0 != 4 {
		t.Fatalf("pool counters unbalanced: gets +%d puts +%d, want +4/+4", g1-g0, p1-p0)
	}
}

// TestTensorCompletionZeroAllocs extends the pin across the end of a
// tensor: once the result archive holds ArchiveDepth entries per slot,
// serving a whole collective — opening its slots, every round, concluding
// them, archiving the final results in place of the oldest — allocates
// nothing on the aggregator. The worker side of one collective is recorded
// once and replayed under fresh tensor IDs, so only aggregator calls are
// measured.
func TestTensorCompletionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	for _, reliable := range []bool{true, false} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			cfg := Config{Reliable: reliable, DeterministicOrder: true, BlockSize: 4, FusionWidth: 2, Streams: 2}
			var trace []*wire.Packet
			p, _ := newPump(t, cfg, traceInputs(), func(_ int, m tmsg) []tmsg {
				if m.dst == aggNode {
					trace = append(trace, m.pkt)
				}
				return []tmsg{m}
			}, false)
			p.drain()
			if !p.allDone() {
				t.Fatal("recorded collective did not converge")
			}

			am := NewAggregatorMachine(p.cfg, aggNode)
			am.Presize(p.cfg.Streams, 4)
			var eb EmitBuf
			tid := uint32(1)
			collective := func() {
				tid++
				for _, pkt := range trace {
					pkt.TensorID = tid
					eb.Reset()
					if err := am.HandlePacket(Msg{Dense: pkt}, &eb); err != nil {
						t.Fatalf("aggregator: %v", err)
					}
				}
			}
			for i := 0; i < 2*ArchiveDepth; i++ {
				collective()
			}
			if am.ActiveSlots() != 0 || am.Stats().RoundsCompleted == 0 {
				t.Fatalf("replayed collectives left %d slots open after %d rounds", am.ActiveSlots(), am.Stats().RoundsCompleted)
			}
			if got := testing.AllocsPerRun(64, collective); got != 0 {
				t.Fatalf("a collective on a warm archive allocates %.1f objects on the aggregator, want 0", got)
			}
		})
	}
}

// TestSparseSteadyStateZeroAllocs is the key-value pin. The aggregator
// serves a whole Algorithm 3 collective — merge, flush, result chunks —
// without allocating once a retired sparseAgg of that size is on
// sparseFree. The worker allocates per collective (the machine, its
// shells and their key arrays, the output pre-sized to the input), never
// per packet: with one worker the result is the input, so the output
// does not grow, and ten times the packets cost the same objects.
func TestSparseSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	shape := Config{Aggregators: []int{aggNode}, Reliable: true, BlockSize: 4, FusionWidth: 2}

	cfg := shape
	cfg.Workers = 2
	cfg = cfg.WithDefaults()
	trace := sparseMergeTrace(t, cfg, 1<<14, 600)
	if len(trace) != 2*75 {
		t.Fatalf("%d data packets recorded, want 150", len(trace))
	}
	am := NewAggregatorMachine(cfg, aggNode)
	var eb EmitBuf
	tid := uint32(1)
	replay := func() {
		tid++
		for _, p := range trace {
			p.TensorID = tid
			eb.Reset()
			if err := am.HandlePacket(Msg{Sparse: p}, &eb); err != nil {
				t.Fatalf("aggregator: %v", err)
			}
		}
	}
	replay()
	if got := testing.AllocsPerRun(20, replay); got != 0 {
		t.Fatalf("a key-value collective on a warm aggregator allocates %.1f objects, want 0", got)
	}

	cfg = shape
	cfg.Workers = 1
	cfg = cfg.WithDefaults()
	solo := func(packets int) float64 {
		in := tensor.NewCOO(1 << 14)
		for k := 0; k < packets*cfg.sparsePairs(); k++ {
			in.Append(int32(3*k), 1)
		}
		am := NewAggregatorMachine(cfg, aggNode)
		var ebW, ebA EmitBuf
		return testing.AllocsPerRun(20, func() {
			tid++
			m, err := NewSparseWorkerMachine(cfg, 0, tid, in)
			if err != nil {
				t.Fatal(err)
			}
			ebW.Reset()
			m.Start(&ebW)
			for !m.Done() {
				// Each call emits at most one packet, and its results are
				// consumed before the worker is called again, as the Emit
				// contract asks of a driver.
				if ebW.Len() != 1 {
					t.Fatalf("worker emitted %d packets, want 1", ebW.Len())
				}
				ebA.Reset()
				if err := am.HandlePacket(Msg{Sparse: ebW.Emits()[0].Sparse}, &ebA); err != nil {
					t.Fatal(err)
				}
				ebW.Reset()
				for _, r := range ebA.Emits() {
					if err := m.HandlePacket(r.Sparse, &ebW); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	few, many := solo(4), solo(40)
	if few != many || few > 12 {
		t.Fatalf("worker allocates %.1f objects over 4 packets, %.1f over 40: want the same handful", few, many)
	}
}
