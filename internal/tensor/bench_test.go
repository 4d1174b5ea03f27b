package tensor_test

import (
	"fmt"
	"math/rand"
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
}

func BenchmarkComputeBitmap(b *testing.B)       { benchBitmap(b, tensor.ComputeBitmap) }
func BenchmarkComputeBitmapSerial(b *testing.B) { benchBitmap(b, tensor.ComputeBitmapSerial) }

func BenchmarkDenseAdd(b *testing.B) {
	x := benchTensor(1<<20, 1, 2)
	y := benchTensor(1<<20, 1, 3)
	b.SetBytes(int64(4 * x.Len()))
	for i := 0; i < b.N; i++ {
		x.Add(y)
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
