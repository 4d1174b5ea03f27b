package protocol

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Trace tests for the sans-I/O machines on the schedule harness: each
// table entry perturbs the delivery schedule (duplicates, reorders, drops
// + timeouts) and asserts the machines still converge on the exact
// deterministic sum.

// traceInputs builds three workers' inputs with distinct sparsity patterns
// over 24 blocks of 4 elements each.
func traceInputs() [][]float32 {
	const blocks, bs = 24, 4
	mk := func(wid int, nz func(b int) bool) []float32 {
		d := make([]float32, blocks*bs)
		for b := 0; b < blocks; b++ {
			if !nz(b) {
				continue
			}
			for i := 0; i < bs; i++ {
				d[b*bs+i] = float32(wid*1000 + b*10 + i)
			}
		}
		return d
	}
	return [][]float32{
		mk(1, func(b int) bool { return b%2 == 0 }),
		mk(2, func(b int) bool { return b%3 == 0 }),
		mk(3, func(b int) bool { return b >= 16 }),
	}
}

// traceCfg is the configuration traceInputs run at, served by aggs:
// blocks of 4, four columns, two streams and a fixed summation order.
func traceCfg(aggs ...int) Config {
	return Config{BlockSize: 4, FusionWidth: 4, Streams: 2, Aggregators: aggs,
		DeterministicOrder: true, RetransmitTimeout: time.Millisecond}
}

func refSum(inputs [][]float32) []float32 {
	ref := make([]float32, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			ref[i] += v
		}
	}
	return ref
}

func TestMachineTraces(t *testing.T) {
	cases := []struct {
		name     string
		reliable bool
		fault    func(n, src int, e *Emit) int
		swap     bool
		ticks    int // extra timeout rounds to recover dropped packets
		check    func(t *testing.T, h *harness)
	}{
		{
			name: "in-order-reliable", reliable: true,
		},
		{
			name: "in-order-lossy",
		},
		{
			// Every aggregator result delivered twice: the duplicate must be
			// version-filtered (or done-filtered) by the worker machines.
			name: "duplicated-results",
			fault: func(n, src int, e *Emit) int {
				if src == aggNode {
					return 2
				}
				return 1
			},
			check: func(t *testing.T, h *harness) {
				var stale int64
				for _, op := range h.ops {
					stale += op.Stats().StaleResults
				}
				if stale == 0 {
					t.Fatal("duplicated results not filtered")
				}
			},
		},
		{
			// Every worker data packet delivered twice: the aggregator must
			// filter same-round duplicates and replay to stale rounds without
			// corrupting the sum.
			name: "duplicated-data-stale-rounds",
			fault: func(n, src int, e *Emit) int {
				if e.Dst == aggNode {
					return 2
				}
				return 1
			},
			check: func(t *testing.T, h *harness) {
				s := h.ams[aggNode].Stats()
				if s.DupsFiltered == 0 && s.StaleRounds == 0 {
					t.Fatalf("duplicates neither filtered nor recognized stale: %+v", s)
				}
			},
		},
		{
			// Adjacent messages on distinct links swapped: per-link FIFO
			// holds (the protocol's only ordering assumption), cross-link
			// order does not.
			name: "reordered-across-links", reliable: true, swap: true,
		},
		{
			name: "reordered-across-links-lossy", swap: true,
		},
		{
			// Drop the first five worker packets (bootstraps among them);
			// only the retransmission timer can recover the streams.
			name: "timeout-before-result",
			fault: func(n, src int, e *Emit) int {
				if e.Dst == aggNode && n < 5 {
					return 0
				}
				return 1
			},
			ticks: 32,
			check: func(t *testing.T, h *harness) {
				var retr int64
				for _, op := range h.ops {
					retr += op.Stats().Retransmits
				}
				if retr == 0 {
					t.Fatal("drops recovered without retransmissions")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := traceCfg()
			cfg.Reliable = tc.reliable
			inputs := traceInputs()
			h := newHarness(t, cfg, len(inputs))
			h.fault, h.swap = tc.fault, tc.swap
			work := h.begin(1, inputs)
			if !h.converge(tc.ticks) {
				t.Fatal("machines did not converge")
			}
			assertExact(t, tc.name, work, refSum(inputs))
			if tc.check != nil {
				tc.check(t, h)
			}
		})
	}
}

// TestMachinesReleaseNoLiveView runs each aggregation mode with every
// packet poisoned right after its machine returns (see harness.handle)
// and expects the exact sum, bit for bit. Two workers
// where contributions are summed in arrival order (a+b is b+a), three where
// the order is fixed or the inputs are integers.
func TestMachinesReleaseNoLiveView(t *testing.T) {
	const n = 4*24 + 3 // 25 blocks, the last one short
	random := func(workers int, seed int64) [][]float32 {
		rng := rand.New(rand.NewSource(seed))
		ins := make([][]float32, workers)
		for w := range ins {
			ins[w] = make([]float32, n)
			for i := range ins[w] {
				ins[w][i] = float32(rng.NormFloat64())
			}
		}
		return ins
	}
	quantized := func(inputs [][]float32, scale float64) []float32 {
		want := make([]float32, len(inputs[0]))
		for i := range want {
			var q int64
			for _, in := range inputs {
				q += int64(math.RoundToEven(float64(in[i]) * scale))
			}
			want[i] = float32(float64(q) / scale)
		}
		return want
	}
	dense := []struct {
		name   string
		cfg    Config
		inputs [][]float32
		want   func([][]float32) []float32
	}{
		{name: "reliable", inputs: random(2, 21)},
		// Worker 2 holds no block of stream 0 and workers 0 and 1 only some
		// of its first row: stream 0's round 0 closes on header-only and
		// partial bootstraps.
		{name: "sparse-bootstrap", inputs: traceInputs()},
		{name: "deterministic-order", cfg: Config{DeterministicOrder: true}, inputs: random(3, 22)},
		{name: "quantized", cfg: Config{QuantizeScale: 1 << 16}, inputs: random(3, 23),
			want: func(in [][]float32) []float32 { return quantized(in, 1<<16) }},
	}
	for _, tc := range dense {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Reliable = true
			cfg.BlockSize, cfg.FusionWidth, cfg.Streams = 4, 4, 2
			h, work := newDense(t, cfg, tc.inputs)
			h.drain()
			if !h.allDone() {
				t.Fatal("machines did not converge")
			}
			want := refSum(tc.inputs)
			if tc.want != nil {
				want = tc.want(tc.inputs)
			}
			assertExact(t, "a released buffer was still being read", work, want)
		})
	}

	t.Run("key-value", func(t *testing.T) {
		cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true,
			BlockSize: 4, FusionWidth: 4}.WithDefaults()
		rng := rand.New(rand.NewSource(24))
		const nnz = 16*5 + 9 // five full packets per worker and a short tail
		ins := []*tensor.COO{tensor.NewCOO(3 * nnz), tensor.NewCOO(3 * nnz)}
		for k := int32(0); k < nnz; k++ {
			ins[0].Append(3*k, float32(rng.NormFloat64()))
			ins[1].Append(3*k+rng.Int31n(2), float32(rng.NormFloat64()))
		}
		h, ref := newKVWorld(t, cfg, ins)
		h.drain()
		for id, m := range h.kv {
			if !m.Done() || m.Result().Len() != len(ref) {
				t.Fatalf("worker %d: done %v, %d pairs of %d", id, m.Done(), m.Result().Len(), len(ref))
			}
		}
	})
}

// TestRetransmitDeadlines pins the deadline a worker machine publishes
// through NextTimeout: a fresh packet's timer is RetransmitTimeout plus
// RetransmitTimeout/64 per worker ID, so workers 0–7 never expire at the
// same instant; with backoff 1 and jitter off, a retransmission re-arms
// that same skewed timeout; reliable mode asks for no timer.
func TestRetransmitDeadlines(t *testing.T) {
	const rt, start = 64 * time.Millisecond, 3 * time.Millisecond
	for _, tc := range []struct {
		name     string
		reliable bool
		timeouts int // HandleTimeout calls, each at the published deadline
	}{
		{name: "after-start"},
		{name: "after-one-timeout", timeouts: 1},
		{name: "after-three-timeouts", timeouts: 3},
		{name: "reliable", reliable: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for wid := 0; wid < 8; wid++ {
				cfg := Config{Workers: 8, Aggregators: []int{aggNode}, BlockSize: 4, FusionWidth: 2, Streams: 1,
					Reliable: tc.reliable, RetransmitTimeout: rt, RetransmitBackoff: 1, RetransmitJitter: -1}
				m := NewWorkerMachine(cfg, wid, 1)
				var eb EmitBuf
				m.Start(NewDenseView(make([]float32, 16), 4, false), start, &eb)
				d, ok := m.NextTimeout()
				if tc.reliable {
					if ok {
						t.Fatalf("worker %d: reliable mode published deadline %v", wid, d)
					}
					continue
				}
				now := start
				for i := 0; i < tc.timeouts; i++ {
					now = d
					eb.Reset()
					if err := m.HandleTimeout(now, &eb); err != nil {
						t.Fatal(err)
					}
					if len(eb.Emits()) != 1 || !eb.Emits()[0].Retransmit {
						t.Fatalf("worker %d: timeout %d at its deadline emitted %d packets", wid, i, len(eb.Emits()))
					}
					d, ok = m.NextTimeout()
				}
				if want := now + rt + time.Duration(wid)*rt/64; !ok || d != want {
					t.Errorf("worker %d: NextTimeout = %v, %v; want %v", wid, d, ok, want)
				}
				if s := m.Stats(); s.Retransmits != int64(tc.timeouts) || s.Backoffs != 0 {
					t.Errorf("worker %d: %d retransmits, %d backoffs; want %d, 0", wid, s.Retransmits, s.Backoffs, tc.timeouts)
				}
			}
		})
	}
}

// TestWorkerMachineResultErrors exercises the worker machine's protocol
// error paths directly: wrong message type, unknown stream, stale tensor.
func TestWorkerMachineResultErrors(t *testing.T) {
	// One stream, one column over three dense blocks: after the bootstrap
	// sends block 0, the machine's local next is block 1.
	cfg := Config{Workers: 1, Aggregators: []int{aggNode}, Reliable: true,
		BlockSize: 4, FusionWidth: 1, Streams: 1}
	m := NewWorkerMachine(cfg, 0, 1)
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	var eb EmitBuf
	m.Start(NewDenseView(data, 4, false), 0, &eb)
	if eb.Len() != 1 {
		t.Fatalf("bootstrap emits = %d", eb.Len())
	}
	eb.Reset()
	if err := m.HandlePacket(&wire.Packet{Type: wire.TypeData, TensorID: 1}, 0, &eb); err == nil || !strings.Contains(err.Error(), "unexpected message type") {
		t.Fatalf("wrong type: err = %v", err)
	}
	eb.Reset()
	if err := m.HandlePacket(&wire.Packet{Type: wire.TypeResult, TensorID: 1, Slot: 9, Nexts: []uint32{wire.Inf(0)}}, 0, &eb); err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Fatalf("unknown stream: err = %v", err)
	}
	// Stale tensor IDs are silently dropped and counted.
	eb.Reset()
	err := m.HandlePacket(&wire.Packet{Type: wire.TypeResult, TensorID: 7, Nexts: []uint32{wire.Inf(0)}}, 0, &eb)
	if err != nil || eb.Len() != 0 {
		t.Fatalf("stale result not dropped: %d emits, err %v", eb.Len(), err)
	}
	if m.Stats().StaleResults != 1 {
		t.Fatalf("StaleResults = %d, want 1", m.Stats().StaleResults)
	}
	// A request past our local next (2 when we still hold block 1) is a
	// protocol violation.
	eb.Reset()
	if err := m.HandlePacket(&wire.Packet{Type: wire.TypeResult, TensorID: 1, BlockSize: 4, Nexts: []uint32{2}}, 0, &eb); err == nil || !strings.Contains(err.Error(), "past local next") {
		t.Fatalf("past-next: err = %v", err)
	}
}

// runSparseFIFO runs key-value collective tid of the Algorithm 3
// machines on the harness, every frame in the order it was sent, calling
// deliver with every packet just before its destination handles it, and
// returns the harness with every worker done.
func runSparseFIFO(tb testing.TB, cfg Config, tid uint32, ins []*tensor.COO, deliver func(dst int, p *wire.SparsePacket)) *harness {
	tb.Helper()
	h := newHarness(tb, cfg, len(ins))
	h.observe = func(f *frame, msg Msg) { deliver(f.dst, msg.Sparse) }
	h.beginKV(tid, ins)
	h.drain()
	for w, m := range h.kv {
		if !m.Done() {
			tb.Fatalf("worker %d not done", w)
		}
	}
	return h
}

// assertKV fails t unless every worker machine's result is want.
func assertKV(t *testing.T, what string, wms []*SparseWorkerMachine, want map[int32]float32) {
	t.Helper()
	for w, m := range wms {
		res := m.Result()
		if res.Len() != len(want) {
			t.Fatalf("%s: worker %d: %d keys, want %d", what, w, res.Len(), len(want))
		}
		for i, k := range res.Keys {
			if res.Values[i] != want[k] {
				t.Fatalf("%s: worker %d key %d: %v != %v", what, w, k, res.Values[i], want[k])
			}
		}
	}
}

// cooOf is the 100-key tensor holding pairs.
func cooOf(pairs map[int32]float32) *tensor.COO {
	c := tensor.NewCOO(100)
	for _, k := range slices.Sorted(maps.Keys(pairs)) {
		c.Append(k, pairs[k])
	}
	return c
}

// TestSparseMachineTrace: two workers with overlapping COO tensors,
// in-order delivery, at every packet shape from Algorithm 3's own (one
// block per packet) to one wider than the input.
func TestSparseMachineTrace(t *testing.T) {
	ins := []*tensor.COO{
		cooOf(map[int32]float32{3: 1, 7: 2, 50: 3, 51: 4, 99: 5}),
		cooOf(map[int32]float32{7: 10, 8: 11, 51: 12}),
	}
	want := map[int32]float32{3: 1, 7: 12, 8: 11, 50: 3, 51: 16, 99: 5}
	// FusionWidth = 1 is the paper's Algorithm 3: this is the packet
	// sequence the machine produced before packets were fused, delivery
	// for delivery.
	verbatim := []string{
		"100<-0 next=50 [3 7]",
		"100<-1 next=51 [7 8]",
		"0<-100 next=4294967294 [3 7]",
		"1<-100 next=4294967294 [3 7]",
		"0<-100 next=50 [8]",
		"1<-100 next=50 [8]",
		"100<-0 next=99 [50 51]",
		"0<-100 next=51 [50]",
		"1<-100 next=51 [50]",
		"100<-1 next=4294967295 [51]",
		"0<-100 next=99 [51]",
		"1<-100 next=99 [51]",
		"100<-0 next=4294967295 [99]",
		"0<-100 next=4294967295 [99]",
		"1<-100 next=4294967295 [99]",
	}
	for _, shape := range []struct {
		fusion, packets int
		seq             []string
	}{
		{fusion: 1, packets: 15, seq: verbatim},
		{fusion: 2, packets: 9},
		{fusion: 32, packets: 4},
	} {
		cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true, BlockSize: 2,
			FusionWidth: shape.fusion}.WithDefaults()
		var seq []string // every packet in delivery order: "dst<-wid next=NextKey keys"
		results := make([]int64, len(ins))
		wms := runSparseFIFO(t, cfg, 1, ins, func(dst int, p *wire.SparsePacket) {
			seq = append(seq, fmt.Sprintf("%d<-%d next=%d %v", dst, p.WID, int64(p.NextKey), p.Keys))
			if dst != aggNode {
				results[dst]++
			}
		}).kv
		if shape.seq != nil && !slices.Equal(seq, shape.seq) {
			t.Fatalf("fusion %d: packet sequence\n%s\nwant\n%s", shape.fusion,
				strings.Join(seq, "\n"), strings.Join(shape.seq, "\n"))
		}
		if len(seq) != shape.packets {
			t.Errorf("fusion %d: %d packets delivered, want %d:\n%s", shape.fusion,
				len(seq), shape.packets, strings.Join(seq, "\n"))
		}
		for w, m := range wms {
			// Every chunk counts as a result (the driver's progress
			// signal); a stale one, for another tensor, does not.
			var eb EmitBuf
			if err := m.HandlePacket(&wire.SparsePacket{Type: wire.TypeSparseResult, TensorID: 2, NextKey: wire.InfKey}, &eb); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats().ResultsRecvd; got != results[w] {
				t.Errorf("fusion %d: worker %d: ResultsRecvd %d, want %d", shape.fusion, w, got, results[w])
			}
		}
		assertKV(t, fmt.Sprintf("fusion %d", shape.fusion), wms, want)
	}
}

// TestResultLifetime pins how long a result's payload lives now that it is
// the accumulator itself (accum.take): round r's sum must survive round
// r+1 collecting into the other array, in both modes — a versioned
// aggregator replays round r's result to a straggler while round r+1 is
// under way, and round r's emitted packet still reads round r's sum once
// round r+1 has closed. Round r+2 then collects into round r's array, which
// is the swap: the result is handed over, never copied. Every packet's
// payload is overwritten with NaNs as soon as HandlePacket returns, as a
// live driver's released buffer may be.
func TestResultLifetime(t *testing.T) {
	const bs, cols, rows, workers = 4, 2, 6, 2
	rng := rand.New(rand.NewSource(31))
	vals := make([][]float32, workers) // vals[w][block*bs+i]
	for w := range vals {
		vals[w] = make([]float32, rows*cols*bs)
		for i := range vals[w] {
			vals[w][i] = float32(rng.NormFloat64())
		}
	}
	// send hands the aggregator worker w's packet for row (its round),
	// stamped with round number version.
	send := func(t *testing.T, am *AggregatorMachine, eb *EmitBuf, w, row int, version uint8) {
		t.Helper()
		p := &wire.Packet{Type: wire.TypeData, Version: version, WID: uint16(w), TensorID: 1,
			BlockSize: bs, Nexts: make([]uint32, cols)}
		for c := 0; c < cols; c++ {
			b := row*cols + c
			p.Blocks = append(p.Blocks, wire.Block{Index: uint32(b),
				Data: append([]float32(nil), vals[w][b*bs:(b+1)*bs]...)})
			p.Nexts[c] = uint32(b + cols)
			if row == rows-1 {
				p.Nexts[c] = wire.Inf(c)
			}
		}
		eb.Reset()
		if err := am.HandlePacket(Msg{Dense: p}, eb); err != nil {
			t.Fatal(err)
		}
		for _, b := range p.Blocks {
			for i := range b.Data {
				b.Data[i] = float32(math.NaN())
			}
		}
	}
	// check fails t unless p holds row's exact sum, bit for bit.
	check := func(t *testing.T, what string, p *wire.Packet, row int) {
		t.Helper()
		if len(p.Blocks) != cols {
			t.Fatalf("%s: %d blocks, want %d", what, len(p.Blocks), cols)
		}
		for c, b := range p.Blocks {
			at := (row*cols + c) * bs
			for i, v := range b.Data {
				if want := vals[0][at+i] + vals[1][at+i]; !sameBits(v, want) {
					t.Fatalf("%s: block %d elem %d = %v, want round %d's sum %v", what, b.Index, i, v, row, want)
				}
			}
		}
	}
	// result returns the packet of the round eb's call concluded: the
	// emitted result (not the Commit one, which reliable mode sets on a
	// slot's final result only).
	result := func(t *testing.T, eb *EmitBuf) *wire.Packet {
		t.Helper()
		for _, e := range eb.Emits() {
			if e.Packet != nil && e.Packet.Type == wire.TypeResult {
				return e.Packet
			}
		}
		t.Fatal("the round did not close")
		return nil
	}

	for _, reliable := range []bool{false, true} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			cfg := Config{Workers: workers, Aggregators: []int{aggNode}, Reliable: reliable,
				BlockSize: bs, FusionWidth: cols, Streams: 1}.WithDefaults()
			am := NewAggregatorMachine(cfg, aggNode)
			var eb EmitBuf
			const r = 2 // rounds 0 and 1 first warm both arrays of every column
			var kept *wire.Packet
			for row := 0; row <= r; row++ {
				send(t, am, &eb, 0, row, uint8(row))
				send(t, am, &eb, 1, row, uint8(row))
				kept = result(t, &eb)
			}
			check(t, "round r's result", kept, r)

			send(t, am, &eb, 0, r+1, r+1)
			if !reliable {
				// Worker 1 missed result r and retransmits its round-r packet
				// while round r+1 is collecting.
				send(t, am, &eb, 1, r, r)
				if eb.Len() != 1 {
					t.Fatalf("stale packet drew %d emits, want one replay", eb.Len())
				}
				check(t, "replay of round r during round r+1", eb.Emits()[0].Packet, r)
			}
			send(t, am, &eb, 1, r+1, r+1)
			next := result(t, &eb)
			check(t, "round r+1's result", next, r+1)
			check(t, "round r's result after round r+1 closed", kept, r)
			if !reliable {
				send(t, am, &eb, 0, r+1, r+1) // a stale round-(r+1) retransmission
				check(t, "replay of round r+1 during round r+2", eb.Emits()[0].Packet, r+1)
			}

			send(t, am, &eb, 0, r+2, r+2)
			send(t, am, &eb, 1, r+2, r+2)
			third := result(t, &eb)
			check(t, "round r+2's result", third, r+2)
			for c := range third.Blocks {
				if &third.Blocks[c].Data[0] != &kept.Blocks[c].Data[0] {
					t.Fatalf("column %d: round r+2 summed outside round r's array: the result was copied", c)
				}
			}
		})
	}
}
