package tensor_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
)

// Benchmarks grounding Fig 20 (bitmap computation cost vs block size) on
// the real implementation. They live in the external test package because
// the block-structured inputs come from internal/sparsity, which imports
// this package.

func benchTensor(n int, density float64, seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := tensor.NewDense(n)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = float32(rng.NormFloat64())
		}
	}
	return d
}

// blockSparseTensor returns a 16 MB tensor whose zeros come in whole
// 256-element blocks, the structure the scan exists to find. Element-wise
// zeroing (benchTensor) leaves every block of 16+ elements non-zero, so the
// scan leaves each block at its first elements and reads almost nothing.
func blockSparseTensor(blockSparsity float64) *tensor.Dense {
	return sparsity.Generate(sparsity.GenSpec{
		Elements: 1 << 22, Sparsity: blockSparsity, Workers: 1, BlockAligned: 256,
	}, rand.New(rand.NewSource(1)))[0]
}

func benchBitmap(b *testing.B, scan func(*tensor.Dense, int) *tensor.Bitmap) {
	// Fig 20's sweep: 30% element density, cost against block size.
	d := benchTensor(1<<22, 0.3, 1) // 16 MB
	for _, bs := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			b.SetBytes(int64(4 * d.Len()))
			for i := 0; i < b.N; i++ {
				scan(d, bs)
			}
		})
	}
	// Scan bandwidth: only an all-zero block is read to its end, so MB/s
	// approaches the kernel's load rate as block sparsity approaches 1.
	for _, sp := range []float64{0, 0.9, 0.99} {
		d := blockSparseTensor(sp)
		b.Run(fmt.Sprintf("bs=256,blocksparsity=%v", sp), func(b *testing.B) {
			b.SetBytes(int64(4 * d.Len()))
			for i := 0; i < b.N; i++ {
				scan(d, 256)
			}
		})
	}
	// The live shape: sparse99_chan's two workers each scan their own
	// 4 MiB tensor at once, right after copying it in from a pristine copy
	// (the copy is untimed here, as it is outside the op there).
	pristine := sparsity.Generate(sparsity.GenSpec{
		Elements: 1 << 20, Sparsity: 0.99, Workers: 2, BlockAligned: 256,
	}, rand.New(rand.NewSource(1)))
	b.Run("elems=1Mi,bs=256,blocksparsity=0.99,scans=2", func(b *testing.B) {
		ts := make([]*tensor.Dense, len(pristine))
		for w := range ts {
			ts[w] = tensor.NewDense(pristine[w].Len())
		}
		b.SetBytes(int64(4 * len(ts) * pristine[0].Len()))
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for w, t := range ts {
				copy(t.Data, pristine[w].Data)
			}
			b.StartTimer()
			for _, t := range ts {
				wg.Add(1)
				go func(t *tensor.Dense) {
					defer wg.Done()
					scan(t, 256)
				}(t)
			}
			wg.Wait()
		}
	})
}

func BenchmarkComputeBitmap(b *testing.B)       { benchBitmap(b, tensor.ComputeBitmap) }
func BenchmarkComputeBitmapSerial(b *testing.B) { benchBitmap(b, tensor.ComputeBitmapSerial) }

// BenchmarkDenseAdd is the aggregator's merge kernel, tensor.AddF32, at
// its two working sizes: one 256-element block, resident in L1 as a
// received block and its accumulator are, and a 4 MiB span, where the add
// is bound by memory as a whole tensor's is. MB/s counts the summand's
// bytes.
func BenchmarkDenseAdd(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"block=256", 256}, {"span=4MiB", 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			x := benchTensor(c.n, 1, 2)
			y := benchTensor(c.n, 1, 3)
			b.SetBytes(int64(4 * c.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.AddF32(x.Data, y.Data)
			}
		})
	}
}

// BenchmarkMergeRuns is the key-value aggregator's merge kernel,
// tensor.MergeRuns, at the shape of kv_sparse_chan's first merge: two
// runs of 8 192 pairs (one packet of 32 x 256) with keys drawn from 1 Mi,
// as a worker's 1 % of a 1 Mi-element tensor is. MB/s counts the pairs
// merged, 8 bytes each.
func BenchmarkMergeRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	run := func() ([]int32, []float32) {
		seen := map[int32]bool{}
		for len(seen) < 8192 {
			seen[int32(rng.Intn(1<<20))] = true
		}
		keys := slices.Sorted(maps.Keys(seen))
		vals := make([]float32, len(keys))
		for i := range vals {
			vals[i] = rng.Float32()
		}
		return keys, vals
	}
	ak, av := run()
	bk, bv := run()
	mk, mv := make([]int32, len(ak)+len(bk)), make([]float32, len(ak)+len(bk))
	b.SetBytes(int64(8 * len(mk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MergeRuns(mk, mv, ak, av, bk, bv)
	}
}

func BenchmarkFromDense(b *testing.B) {
	d := benchTensor(1<<20, 0.05, 4)
	b.SetBytes(int64(4 * d.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.FromDense(d)
	}
}

func BenchmarkCOOAdd(b *testing.B) {
	x := tensor.FromDense(benchTensor(1<<20, 0.02, 5))
	y := tensor.FromDense(benchTensor(1<<20, 0.02, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AddCOO(y)
	}
}
