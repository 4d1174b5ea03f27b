package protocol

import (
	"encoding/binary"
	"slices"
	"testing"

	"omnireduce/internal/wire"
)

// aggRounds is one dense collective's worker traffic, encoded: rounds[i]
// holds the packets the aggregator consumes between closing round i-1 and
// closing round i, in the order a FIFO fabric delivers them.
type aggRounds struct {
	rounds [][][]byte
	bytes  int64 // payload bytes aggregated over the collective
}

// recordAggRounds runs cfg.Workers dense worker machines against an
// aggregator machine on the harness over an n-element tensor and records
// every packet the aggregator receives, cut at each round it closes.
func recordAggRounds(tb testing.TB, cfg Config, n int) *aggRounds {
	tb.Helper()
	inputs := make([][]float32, cfg.Workers)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			inputs[w][i] = float32(i%13+w) + 0.5 // fully dense: every block is sent
		}
	}
	h := newHarness(tb, cfg, cfg.Workers)
	rec := &aggRounds{}
	var cur [][]byte
	cut := func() {
		if len(h.rounds) > len(rec.rounds) {
			rec.rounds, cur = append(rec.rounds, cur), nil
		}
	}
	h.observe = func(f *frame, msg Msg) {
		if f.dst == aggNode {
			cut()
			cur = append(cur, slices.Clone(f.buf))
			for _, b := range msg.Dense.Blocks {
				rec.bytes += int64(4 * len(b.Data))
			}
		}
	}
	h.begin(1, inputs)
	h.drain()
	cut()
	if !h.allDone() {
		tb.Fatal("the recorded collective did not finish")
	}
	return rec
}

// BenchmarkAggregatorStep is the aggregator's share of a live dense round:
// a view decode of every packet the round takes and the machine step that
// folds it in, at Defaults()' 32 columns × 4 streams with 2 workers on a
// 1 Mi-element tensor (the dense_chan shape). One op is one round; the
// encoded collective (8 MiB) cycles, so packets arrive cache-cold as they
// do from another core, and each pass is a new tensor ID on the same
// machine, whose slots and shells stay pooled.
func BenchmarkAggregatorStep(b *testing.B) {
	cfg := Defaults()
	cfg.Workers, cfg.Aggregators, cfg.Reliable = 2, []int{aggNode}, true
	rec := recordAggRounds(b, cfg, 1<<20)
	am := NewAggregatorMachine(cfg, aggNode)
	var p wire.Packet
	var scratch []float32
	var eb EmitBuf
	tid := uint32(1)
	b.SetBytes(rec.bytes / int64(len(rec.rounds)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % len(rec.rounds)
		if r == 0 && i > 0 {
			tid++
			for _, round := range rec.rounds {
				for _, buf := range round {
					binary.LittleEndian.PutUint32(buf[8:], tid)
				}
			}
		}
		for _, buf := range rec.rounds[r] {
			var err error
			if scratch, err = wire.DecodePacketView(&p, scratch, buf); err != nil {
				b.Fatal(err)
			}
			eb.Reset()
			if err := am.HandlePacket(Msg{Dense: &p}, &eb); err != nil {
				b.Fatal(err)
			}
		}
		if eb.Len() == 0 {
			b.Fatalf("round %d did not close", r)
		}
	}
}
