package protocol

import (
	"errors"
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
	result := func(next uint32, keys []uint32, vals []float32) *wire.SparsePacket {
		return &wire.SparsePacket{Type: wire.TypeSparseResult, WID: aggNode, TensorID: 1, NextKey: next, Keys: keys, Values: vals}
	}
	for _, tc := range []struct {
		name string
		keys []uint32
		vals []float32
	}{
		{"duplicate key", []uint32{30, 30}, []float32{1, 2}},
		{"descending key", []uint32{31, 30}, []float32{1, 2}},
		{"first key equals the previous chunk's last", []uint32{20, 30}, []float32{1, 2}},
		{"first key below the previous chunk's last", []uint32{5, 30}, []float32{1, 2}},
		{"more keys than values", []uint32{30, 31}, []float32{1}},
		{"more values than keys", []uint32{30}, []float32{1, 2}},
		{"key at the dimension", []uint32{30, 100}, []float32{1, 2}},
		{"key above 2^31", []uint32{30, 1<<31 + 7}, []float32{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewSparseWorkerMachine(cfg, 0, 1, in)
			if err != nil {
				t.Fatal(err)
			}
			var eb EmitBuf
			m.Start(&eb)
			if err := m.HandlePacket(result(MoreComing, []uint32{10, 20}, []float32{1, 2}), &eb); err != nil {
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
	// On an empty output there is no last key to be below: a first key of
	// 2^31 or more must not be assembled as a negative one, which Dense()
	// would index with.
	m, err := NewSparseWorkerMachine(cfg, 0, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	var eb EmitBuf
	m.Start(&eb)
	err = m.HandlePacket(result(wire.InfKey, []uint32{1 << 31}, []float32{1}), &eb)
	if !errors.Is(err, ErrSparseResult) || m.Done() || m.Result().Len() != 0 {
		t.Fatalf("first key >= 2^31 on an empty output: err %v, done %v, %d pairs", err, m.Done(), m.Result().Len())
	}
	m.Result().ToDense() // what was accepted indexes in range
}

// sparseMergeTrace records the data packets of one collective in the
// order a FIFO fabric delivers them to the aggregator: cfg.Workers inputs
// of nnz pairs each over dim keys.
func sparseMergeTrace(tb testing.TB, cfg Config, dim, nnz int) []*wire.SparsePacket {
	tb.Helper()
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
	var trace []*wire.SparsePacket
	runSparseFIFO(tb, cfg, ins, func(dst int, p *wire.SparsePacket) {
		if dst == aggNode {
			trace = append(trace, p)
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
