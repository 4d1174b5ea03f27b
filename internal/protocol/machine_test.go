package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Trace tests for the sans-I/O machines: a tiny synchronous pump feeds
// worker and aggregator machines from a FIFO queue — no transport, no
// goroutines, no clocks. Each table entry perturbs the delivery schedule
// (duplicates, reorders, drops + timeouts) and asserts the machines still
// converge on the exact deterministic sum.

const aggNode = 100 // dedicated aggregator node ID, distinct from worker IDs

type tmsg struct {
	src, dst int
	pkt      *wire.Packet
}

// testClone deep-copies an emitted dense packet. Machines emit reusable
// shells valid only until the next call into the emitting machine, so
// the pump — which queues messages for later delivery — must copy them
// at enqueue time, exactly as a real driver would encode them.
func testClone(p *wire.Packet) *wire.Packet {
	c := *p
	c.Nexts = append([]uint32(nil), p.Nexts...)
	c.Blocks = append([]wire.Block(nil), p.Blocks...)
	for i := range c.Blocks {
		c.Blocks[i].Data = append([]float32(nil), c.Blocks[i].Data...)
	}
	return &c
}

// testCloneSparse is testClone for key-value packets.
func testCloneSparse(p *wire.SparsePacket) *wire.SparsePacket {
	c := *p
	c.Keys = append([]int32(nil), p.Keys...)
	c.Values = append([]float32(nil), p.Values...)
	return &c
}

// poison overwrites a delivered packet's encoding with 0xFF (NaN payloads,
// keys no tensor has): what the buffer pool may do to it once a live
// driver has released it after HandlePacket.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = 0xFF
	}
}

// pump drives the machines to completion with deterministic, synchronous
// delivery. tamper sees every enqueued message and returns the copies to
// actually deliver (nil drops it); swapLinks additionally swaps adjacent
// queue entries on distinct links to exercise cross-link reordering.
//
// The aggregator gets each packet the way a live driver hands it one: as a
// view of the packet's own encoding (wire.DecodePacketView), poisoned as
// soon as HandlePacket returns. A machine that kept any slice of it sums
// NaNs.
type pump struct {
	t         *testing.T
	cfg       Config
	wms       []*WorkerMachine
	am        *AggregatorMachine
	q         []tmsg
	now       time.Duration
	tamper    func(n int, m tmsg) []tmsg
	swapLinks bool
	seq       int
	eb        EmitBuf
	view      wire.Packet
	arena     []float32
}

func newPump(t *testing.T, cfg Config, inputs [][]float32, tamper func(n int, m tmsg) []tmsg, swap bool) (*pump, [][]float32) {
	t.Helper()
	cfg.Workers = len(inputs)
	cfg.Aggregators = []int{aggNode}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p := &pump{t: t, cfg: cfg, am: NewAggregatorMachine(cfg, aggNode),
		tamper: tamper, swapLinks: swap}
	work := make([][]float32, len(inputs))
	for w := range inputs {
		work[w] = append([]float32(nil), inputs[w]...)
		p.wms = append(p.wms, NewWorkerMachine(cfg, w, 1))
	}
	for w, m := range p.wms {
		view := NewDenseView(work[w], cfg.BlockSize, cfg.ForceDense)
		p.eb.Reset()
		m.Start(view, 0, &p.eb)
		p.push(w, p.eb.Emits())
	}
	return p, work
}

func (p *pump) push(src int, emits []Emit) {
	for i := range emits {
		m := tmsg{src: src, dst: emits[i].Dst, pkt: testClone(emits[i].Packet)}
		out := []tmsg{m}
		if p.tamper != nil {
			out = p.tamper(p.seq, m)
		}
		p.seq++
		p.q = append(p.q, out...)
		if p.swapLinks && len(p.q) >= 2 {
			a, b := &p.q[len(p.q)-2], &p.q[len(p.q)-1]
			if a.src != b.src || a.dst != b.dst {
				*a, *b = *b, *a // cross-link swap preserves per-link FIFO
			}
		}
	}
}

// drain processes the queue to empty, panicking the test on machine errors.
func (p *pump) drain() {
	for len(p.q) > 0 {
		m := p.q[0]
		p.q = p.q[1:]
		if m.dst == aggNode {
			buf := wire.AppendPacket(nil, m.pkt)
			arena, err := wire.DecodePacketView(&p.view, p.arena, buf)
			if err != nil {
				p.t.Fatalf("decode: %v", err)
			}
			p.arena = arena
			p.eb.Reset()
			err = p.am.HandlePacket(Msg{Dense: &p.view}, &p.eb)
			poison(buf)
			if err != nil {
				p.t.Fatalf("aggregator: %v", err)
			}
			p.push(aggNode, p.eb.Emits())
			continue
		}
		p.eb.Reset()
		if err := p.wms[m.dst].HandlePacket(m.pkt, p.now, &p.eb); err != nil {
			p.t.Fatalf("worker %d: %v", m.dst, err)
		}
		p.push(m.dst, p.eb.Emits())
	}
}

// tick advances virtual time past every pending deadline and fires the
// timeout handler on all workers.
func (p *pump) tick() {
	var latest time.Duration
	for _, m := range p.wms {
		if d, ok := m.NextTimeout(); ok && d > latest {
			latest = d
		}
	}
	p.now = latest + time.Nanosecond
	for w, m := range p.wms {
		p.eb.Reset()
		if err := m.HandleTimeout(p.now, &p.eb); err != nil {
			p.t.Fatalf("worker %d timeout: %v", w, err)
		}
		p.push(w, p.eb.Emits())
	}
}

func (p *pump) allDone() bool {
	for _, m := range p.wms {
		if !m.Done() {
			return false
		}
	}
	return true
}

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
	base := Config{
		BlockSize:          4,
		FusionWidth:        4,
		Streams:            2,
		DeterministicOrder: true,
		RetransmitTimeout:  time.Millisecond,
	}
	cases := []struct {
		name     string
		reliable bool
		tamper   func(n int, m tmsg) []tmsg
		swap     bool
		ticks    int // extra timeout rounds to recover dropped packets
		check    func(t *testing.T, p *pump)
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
			tamper: func(n int, m tmsg) []tmsg {
				if m.src == aggNode {
					return []tmsg{m, m}
				}
				return []tmsg{m}
			},
			check: func(t *testing.T, p *pump) {
				var stale int64
				for _, m := range p.wms {
					stale += m.Stats().StaleResults
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
			tamper: func(n int, m tmsg) []tmsg {
				if m.dst == aggNode {
					return []tmsg{m, m}
				}
				return []tmsg{m}
			},
			check: func(t *testing.T, p *pump) {
				s := p.am.Stats()
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
			tamper: func(n int, m tmsg) []tmsg {
				if m.dst == aggNode && n < 5 {
					return nil
				}
				return []tmsg{m}
			},
			ticks: 32,
			check: func(t *testing.T, p *pump) {
				var retr int64
				for _, m := range p.wms {
					retr += m.Stats().Retransmits
				}
				if retr == 0 {
					t.Fatal("drops recovered without retransmissions")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Reliable = tc.reliable
			inputs := traceInputs()
			p, work := newPump(t, cfg, inputs, tc.tamper, tc.swap)
			p.drain()
			for i := 0; i < tc.ticks && !p.allDone(); i++ {
				p.tick()
				p.drain()
			}
			if !p.allDone() {
				t.Fatal("machines did not converge")
			}
			ref := refSum(inputs)
			for w := range work {
				for i, v := range work[w] {
					if v != ref[i] {
						t.Fatalf("worker %d elem %d: %v != %v", w, i, v, ref[i])
					}
				}
			}
			if tc.check != nil {
				tc.check(t, p)
			}
		})
	}
}

// TestMachinesReleaseNoLiveView runs each aggregation mode with every
// aggregator-bound packet poisoned right after its HandlePacket (see pump
// and kvWorld.deliver) and expects the exact sum, bit for bit. Two workers
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
			p, work := newPump(t, cfg, tc.inputs, nil, false)
			p.drain()
			if !p.allDone() {
				t.Fatal("machines did not converge")
			}
			want := refSum(tc.inputs)
			if tc.want != nil {
				want = tc.want(tc.inputs)
			}
			for w := range work {
				for i, v := range work[w] {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("worker %d elem %d: %v != %v: a released buffer was still being read", w, i, v, want[i])
					}
				}
			}
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
		w := newKVWorld(t, cfg, ins)
		for qs := w.enabled(); len(qs) > 0; qs = w.enabled() {
			w.deliver(t, qs[0])
			w.check(t)
		}
		for id, m := range w.wms {
			if !m.Done() || m.Result().Len() != len(w.ref) {
				t.Fatalf("worker %d: done %v, %d pairs of %d", id, m.Done(), m.Result().Len(), len(w.ref))
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

// runSparseFIFO runs the Algorithm 3 key-value machines through the same
// synchronous in-memory style — one aggregator, one FIFO queue for the
// whole cluster — calling deliver with every packet just before its
// destination handles it, and returns the worker machines.
func runSparseFIFO(tb testing.TB, cfg Config, ins []*tensor.COO, deliver func(dst int, p *wire.SparsePacket)) []*SparseWorkerMachine {
	tb.Helper()
	am := NewAggregatorMachine(cfg, aggNode)
	var wms []*SparseWorkerMachine
	type smsg struct {
		dst int
		pkt *wire.SparsePacket
	}
	var q []smsg
	var eb EmitBuf
	push := func(emits []Emit) {
		for i := range emits {
			q = append(q, smsg{dst: emits[i].Dst, pkt: testCloneSparse(emits[i].Sparse)})
		}
	}
	for w := range ins {
		m, err := NewSparseWorkerMachine(cfg, w, 1, ins[w])
		if err != nil {
			tb.Fatal(err)
		}
		wms = append(wms, m)
		eb.Reset()
		m.Start(&eb)
		push(eb.Emits())
	}
	for ; len(q) > 0; q = q[1:] {
		m := q[0]
		deliver(m.dst, m.pkt)
		eb.Reset()
		var err error
		if m.dst == aggNode {
			err = am.HandlePacket(Msg{Sparse: m.pkt}, &eb)
		} else {
			err = wms[m.dst].HandlePacket(m.pkt, &eb)
		}
		if err != nil {
			tb.Fatal(err)
		}
		push(eb.Emits())
	}
	for w, m := range wms {
		if !m.Done() {
			tb.Fatalf("worker %d not done", w)
		}
	}
	return wms
}

// TestSparseMachineTrace: two workers with overlapping COO tensors,
// in-order delivery, at every packet shape from Algorithm 3's own (one
// block per packet) to one wider than the input.
func TestSparseMachineTrace(t *testing.T) {
	mk := func(pairs map[int32]float32) *tensor.COO {
		c := tensor.NewCOO(100)
		for k := int32(0); k < 100; k++ {
			if v, ok := pairs[k]; ok {
				c.Append(k, v)
			}
		}
		return c
	}
	ins := []*tensor.COO{
		mk(map[int32]float32{3: 1, 7: 2, 50: 3, 51: 4, 99: 5}),
		mk(map[int32]float32{7: 10, 8: 11, 51: 12}),
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
		wms := runSparseFIFO(t, cfg, ins, func(dst int, p *wire.SparsePacket) {
			seq = append(seq, fmt.Sprintf("%d<-%d next=%d %v", dst, p.WID, int64(p.NextKey), p.Keys))
			if dst != aggNode {
				results[dst]++
			}
		})
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
			res := m.Result()
			if res.Len() != len(want) {
				t.Fatalf("fusion %d: worker %d: %d keys, want %d", shape.fusion, w, res.Len(), len(want))
			}
			for i, k := range res.Keys {
				if res.Values[i] != want[k] {
					t.Fatalf("fusion %d: worker %d key %d: %v != %v", shape.fusion, w, k, res.Values[i], want[k])
				}
			}
		}
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
	// sum is row's exact result, as bits.
	sum := func(row int) [][]uint32 {
		var out [][]uint32
		for c := 0; c < cols; c++ {
			b := row*cols + c
			var blk []uint32
			for i := 0; i < bs; i++ {
				blk = append(blk, math.Float32bits(vals[0][b*bs+i]+vals[1][b*bs+i]))
			}
			out = append(out, blk)
		}
		return out
	}
	check := func(t *testing.T, what string, p *wire.Packet, row int) {
		t.Helper()
		want := sum(row)
		if len(p.Blocks) != cols {
			t.Fatalf("%s: %d blocks, want %d", what, len(p.Blocks), cols)
		}
		for c, b := range p.Blocks {
			for i, v := range b.Data {
				if math.Float32bits(v) != want[c][i] {
					t.Fatalf("%s: block %d elem %d = %v, want round %d's sum %v",
						what, b.Index, i, v, row, math.Float32frombits(want[c][i]))
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
