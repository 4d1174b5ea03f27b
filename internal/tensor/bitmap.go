package tensor

import (
	"math/bits"
	"runtime"
	"sync"
)

// Bitmap records which blocks of a tensor contain at least one non-zero
// element: bit b is set iff block b is non-zero. It is the Go counterpart
// of the paper's GPU bitmap kernel (Appendix B.1): one bit per block,
// computed with a parallel scan.
type Bitmap struct {
	bits      []uint64
	numBlocks int
}

// NewBitmap returns an all-zero bitmap for numBlocks blocks.
func NewBitmap(numBlocks int) *Bitmap {
	return &Bitmap{
		bits:      make([]uint64, (numBlocks+63)/64),
		numBlocks: numBlocks,
	}
}

// NumBlocks reports the number of blocks the bitmap covers.
func (m *Bitmap) NumBlocks() int { return m.numBlocks }

// Set marks block b non-zero.
func (m *Bitmap) Set(b int) { m.bits[b>>6] |= 1 << (uint(b) & 63) }

// Clear marks block b zero.
func (m *Bitmap) Clear(b int) { m.bits[b>>6] &^= 1 << (uint(b) & 63) }

// Get reports whether block b is marked non-zero.
func (m *Bitmap) Get(b int) bool { return m.bits[b>>6]&(1<<(uint(b)&63)) != 0 }

// Count returns the number of non-zero blocks.
func (m *Bitmap) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// BlockSparsity returns the fraction of all-zero blocks in [0,1].
func (m *Bitmap) BlockSparsity() float64 {
	if m.numBlocks == 0 {
		return 0
	}
	return 1 - float64(m.Count())/float64(m.numBlocks)
}

// NextSet returns the index of the first set bit at or after from, or -1 if
// none. This is the worker's "next non-zero block" lookup in Algorithm 1.
func (m *Bitmap) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= m.numBlocks {
		return -1
	}
	wi := from >> 6
	w := m.bits[wi] &^ ((1 << (uint(from) & 63)) - 1)
	for {
		if w != 0 {
			b := wi<<6 + bits.TrailingZeros64(w)
			if b >= m.numBlocks {
				return -1
			}
			return b
		}
		wi++
		if wi >= len(m.bits) {
			return -1
		}
		w = m.bits[wi]
	}
}

// Or merges other into m (block-wise union). Panics if sizes differ.
func (m *Bitmap) Or(other *Bitmap) {
	if other.numBlocks != m.numBlocks {
		panic("tensor: bitmap size mismatch")
	}
	for i, w := range other.bits {
		m.bits[i] |= w
	}
}

// Clone returns a deep copy.
func (m *Bitmap) Clone() *Bitmap {
	c := NewBitmap(m.numBlocks)
	copy(c.bits, m.bits)
	return c
}

// minShardBytes is the least tensor a scan shard is worth a goroutine for:
// below 256 KiB the hand-off costs more than the scan it saves.
const minShardBytes = 256 << 10

// ComputeBitmap scans the dense tensor t with block size bs and returns the
// non-zero-block bitmap. The scan is sharded across up to GOMAXPROCS
// goroutines (the stand-in for the paper's CUDA kernel), the caller
// scanning the first shard itself; shard boundaries are aligned to
// multiples of 64 blocks so shards never write the same word.
func ComputeBitmap(t *Dense, bs int) *Bitmap {
	m := NewBitmap(t.NumBlocks(bs))
	shards := min(runtime.GOMAXPROCS(0), 4*len(t.Data)/minShardBytes)
	if shards <= 1 {
		scanRange(m, t, bs, 0, len(m.bits))
		return m
	}
	wordsPerShard := (len(m.bits) + shards - 1) / shards
	var wg sync.WaitGroup
	for w0 := wordsPerShard; w0 < len(m.bits); w0 += wordsPerShard {
		wg.Add(1)
		go func(w0 int) {
			defer wg.Done()
			scanRange(m, t, bs, w0, min(w0+wordsPerShard, len(m.bits)))
		}(w0)
	}
	scanRange(m, t, bs, 0, wordsPerShard)
	wg.Wait()
	return m
}

// ComputeBitmapSerial is the single-goroutine variant, used by the bitmap
// cost benchmark (Fig 20) to expose the raw per-element scan cost.
func ComputeBitmapSerial(t *Dense, bs int) *Bitmap {
	m := NewBitmap(t.NumBlocks(bs))
	scanRange(m, t, bs, 0, len(m.bits))
	return m
}

// scanRange fills bitmap words [w0, w1) of m from t, each built by
// scanWord from its 64 blocks and stored once.
func scanRange(m *Bitmap, t *Dense, bs, w0, w1 int) {
	for wi := w0; wi < w1; wi++ {
		lo := (wi << 6) * bs
		m.bits[wi] = scanWord(t.Data[lo:min(lo+64*bs, len(t.Data))], bs)
	}
}

// scanWordGo is the portable word builder: bit j of the result is set iff
// the j-th block of bs floats in rest (the last one possibly shorter) is
// non-zero. The word is built in a register. Short blocks get a loop of
// their own: a call anywhere in the loop makes the compiler spill the loop
// state around every block, which at bs=1 is most of the work.
func scanWordGo(rest []float32, bs int) uint64 {
	var word uint64
	if bs < wordScanMin {
		for j := 0; len(rest) > 0; j++ {
			n := min(bs, len(rest))
			if !isZeroShort(rest[:n]) {
				word |= 1 << uint(j)
			}
			rest = rest[n:]
		}
		return word
	}
	for j := 0; len(rest) > 0; j++ {
		n := min(bs, len(rest))
		// A dense block leaves on its first element without a call.
		if rest[0] != 0 || !isZeroBlock(rest[:n]) {
			word |= 1 << uint(j)
		}
		rest = rest[n:]
	}
	return word
}

// DensityWithinBlocks returns the average fraction of non-zero elements
// within the non-zero blocks of t (Fig 16, right panel). Returns 0 when the
// tensor has no non-zero block.
func DensityWithinBlocks(t *Dense, bs int) float64 {
	nb := t.NumBlocks(bs)
	var nzBlocks int
	var density float64
	for b := 0; b < nb; b++ {
		blk := t.Block(b, bs)
		nz := 0
		for _, v := range blk {
			if v != 0 {
				nz++
			}
		}
		if nz > 0 {
			nzBlocks++
			density += float64(nz) / float64(len(blk))
		}
	}
	if nzBlocks == 0 {
		return 0
	}
	return density / float64(nzBlocks)
}
