package protocol

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// TestSparseWorkerRejectsMalformedResult: a result chunk is network
// input. One that does not continue the output in strictly increasing key
// order below the tensor's dimension fails the collective with
// ErrSparseResult, leaves what was assembled untouched, and panics nothing.
func TestSparseWorkerRejectsMalformedResult(t *testing.T) {
	cfg := Config{Workers: 1, Aggregators: []int{aggNode}, Reliable: true}.WithDefaults()
	in := tensor.NewCOO(100)
	in.Append(10, 1)
	result := func(next uint32, keys []int32, vals []float32) *wire.SparsePacket {
		return &wire.SparsePacket{Type: wire.TypeSparseResult, WID: aggNode, TensorID: 1, NextKey: next, Keys: keys, Values: vals}
	}
	for _, tc := range []struct {
		name string
		keys []int32
		vals []float32
	}{
		{"duplicate key", []int32{30, 30}, []float32{1, 2}},
		{"descending key", []int32{31, 30}, []float32{1, 2}},
		{"first key equals the previous chunk's last", []int32{20, 30}, []float32{1, 2}},
		{"first key below the previous chunk's last", []int32{5, 30}, []float32{1, 2}},
		{"more keys than values", []int32{30, 31}, []float32{1}},
		{"more values than keys", []int32{30}, []float32{1, 2}},
		{"key at the dimension", []int32{30, 100}, []float32{1, 2}},
		{"key above 2^31", []int32{30, math.MinInt32 + 7}, []float32{1, 2}}, // 2^31 + 7 on the wire
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewSparseWorkerMachine(cfg, 0, 1, in)
			if err != nil {
				t.Fatal(err)
			}
			var eb EmitBuf
			m.Start(&eb)
			if err := m.HandlePacket(result(MoreComing, []int32{10, 20}, []float32{1, 2}), &eb); err != nil {
				t.Fatalf("well-formed chunk: %v", err)
			}
			err = m.HandlePacket(result(wire.InfKey, tc.keys, tc.vals), &eb)
			if !errors.Is(err, ErrSparseResult) || !errors.Is(err, tensor.ErrKeyOrder) {
				t.Fatalf("err = %v, want ErrSparseResult wrapping tensor.ErrKeyOrder", err)
			}
			if out := m.Result(); m.Done() || !slices.Equal(out.Keys, []int32{10, 20}) || !slices.Equal(out.Values, []float32{1, 2}) {
				t.Fatalf("after the refusal: done %v, output %v %v", m.Done(), out.Keys, out.Values)
			}
		})
	}
	// On an empty output there is no last key to be below: a first wire
	// key of 2^31 or more decodes negative and must not be assembled, as
	// ToDense would index with it.
	m, err := NewSparseWorkerMachine(cfg, 0, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	var eb EmitBuf
	m.Start(&eb)
	err = m.HandlePacket(result(wire.InfKey, []int32{math.MinInt32}, []float32{1}), &eb)
	if !errors.Is(err, ErrSparseResult) || m.Done() || m.Result().Len() != 0 {
		t.Fatalf("first key >= 2^31 on an empty output: err %v, done %v, %d pairs", err, m.Done(), m.Result().Len())
	}
	m.Result().ToDense() // what was accepted indexes in range
}

// sparseInputs is cfg.Workers random inputs of nnz pairs each over dim
// keys.
func sparseInputs(cfg Config, dim, nnz int) []*tensor.COO {
	rng := rand.New(rand.NewSource(5))
	ins := make([]*tensor.COO, cfg.Workers)
	for w := range ins {
		keys := rng.Perm(dim)[:nnz]
		slices.Sort(keys)
		ins[w] = tensor.NewCOO(dim)
		for _, k := range keys {
			ins[w].Append(int32(k), float32(rng.NormFloat64()))
		}
	}
	return ins
}

// sparseMergeTrace records the data packets of one collective over
// sparseInputs in the order a FIFO fabric delivers them to the aggregator.
func sparseMergeTrace(tb testing.TB, cfg Config, dim, nnz int) []*wire.SparsePacket {
	tb.Helper()
	var trace []*wire.SparsePacket
	runSparseFIFO(tb, cfg, 1, sparseInputs(cfg, dim, nnz), func(dst int, p *wire.SparsePacket) {
		if dst == aggNode {
			trace = append(trace, new(wire.SparsePacket))
			wire.CopySparsePacketInto(trace[len(trace)-1], p)
		}
	})
	return trace
}

// BenchmarkSparseMerge is the aggregator's share of a key-value
// collective with nothing else in the loop: the recorded data packets of
// two workers (1% of 1Mi keys each, the repository benchmark's
// kv_sparse_chan shape) replayed through handleSparse — sorted-run merge,
// flush and result chunking. MB/s counts the pairs merged, 8 bytes each.
func BenchmarkSparseMerge(b *testing.B) {
	cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true}.WithDefaults()
	trace := sparseMergeTrace(b, cfg, 1<<20, 10486)
	var pairs int64
	for _, p := range trace {
		pairs += int64(len(p.Keys))
	}
	am := NewAggregatorMachine(cfg, aggNode)
	var eb EmitBuf
	tid := uint32(1)
	b.SetBytes(8 * pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid++
		for _, p := range trace {
			p.TensorID = tid
			eb.Reset()
			if err := am.HandlePacket(Msg{Sparse: p}, &eb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSparseWorkerStep is worker 0's share of the same collective
// (kv_sparse_chan's shape: 2 workers, 1% of 1Mi keys each) with nothing
// else in the loop: a pooled machine from GetSparseWorkerMachine, its
// Start, a view decode and HandlePacket for every result chunk it was
// sent (recorded encoded, in FIFO order), and Recycle. One op is one
// collective; MB/s counts the result pairs assembled, 8 bytes each.
func BenchmarkSparseWorkerStep(b *testing.B) {
	cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true}.WithDefaults()
	ins := sparseInputs(cfg, 1<<20, 10486)
	var chunks [][]byte
	wms := runSparseFIFO(b, cfg, 1, ins, func(dst int, p *wire.SparsePacket) {
		if dst == 0 {
			chunks = append(chunks, wire.AppendSparsePacket(nil, p))
		}
	}).kv
	b.SetBytes(8 * int64(wms[0].Result().Len()))
	var view wire.SparsePacket
	var keys []int32
	var vals []float32
	var eb EmitBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := GetSparseWorkerMachine(cfg, 0, 1, ins[0])
		if err != nil {
			b.Fatal(err)
		}
		eb.Reset()
		m.Start(&eb)
		for _, buf := range chunks {
			if keys, vals, err = wire.DecodeSparsePacketView(&view, keys, vals, buf); err != nil {
				b.Fatal(err)
			}
			eb.Reset()
			if err := m.HandlePacket(&view, &eb); err != nil {
				b.Fatal(err)
			}
		}
		if !m.Done() {
			b.Fatal("the replayed collective did not conclude")
		}
		m.Recycle()
	}
}
