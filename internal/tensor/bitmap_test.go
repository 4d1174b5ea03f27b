package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	m := NewBitmap(130)
	if m.NumBlocks() != 130 {
		t.Fatalf("NumBlocks = %d", m.NumBlocks())
	}
	m.Set(0)
	m.Set(64)
	m.Set(129)
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Get(64) || m.Get(63) {
		t.Fatal("Get wrong")
	}
	m.Clear(64)
	if m.Get(64) {
		t.Fatal("Clear failed")
	}
	if got := m.BlockSparsity(); got != 1-2.0/130 {
		t.Fatalf("BlockSparsity = %v", got)
	}
}

func TestBitmapNextSet(t *testing.T) {
	m := NewBitmap(200)
	m.Set(5)
	m.Set(70)
	m.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 70}, {70, 70}, {71, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := m.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := m.NextSet(200); got != -1 {
		t.Errorf("NextSet(200) = %d, want -1", got)
	}
	empty := NewBitmap(100)
	if got := empty.NextSet(0); got != -1 {
		t.Errorf("empty NextSet = %d, want -1", got)
	}
}

func TestBitmapOrClone(t *testing.T) {
	a := NewBitmap(100)
	b := NewBitmap(100)
	a.Set(1)
	b.Set(2)
	a.Or(b)
	if !a.Get(1) || !a.Get(2) {
		t.Fatal("Or wrong")
	}
	c := a.Clone()
	c.Set(50)
	if a.Get(50) {
		t.Fatal("Clone aliases")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	a.Or(NewBitmap(99))
}

func TestComputeBitmap(t *testing.T) {
	d := NewDense(1000)
	d.Data[0] = 1    // block 0
	d.Data[255] = 1  // block 0 (bs=256)
	d.Data[600] = -1 // block 2
	m := ComputeBitmap(d, 256)
	if m.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", m.NumBlocks())
	}
	want := []bool{true, false, true, false}
	for b, w := range want {
		if m.Get(b) != w {
			t.Errorf("block %d = %v, want %v", b, m.Get(b), w)
		}
	}
}

// Property: the parallel bitmap matches the serial bitmap for random tensors
// and block sizes, including tails that are not multiples of bs. Lengths
// reach past 2*minShardBytes so the scan really is sharded on some draws.
func TestComputeBitmapParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(minShardBytes)
		bs := 1 + r.Intn(300)
		d := NewDense(n)
		for i := range d.Data {
			if r.Float64() < 0.05 {
				d.Data[i] = 1
			}
		}
		p := ComputeBitmap(d, bs)
		s := ComputeBitmapSerial(d, bs)
		if p.NumBlocks() != s.NumBlocks() {
			return false
		}
		for b := 0; b < p.NumBlocks(); b++ {
			if p.Get(b) != s.Get(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDensityWithinBlocks(t *testing.T) {
	d := NewDense(8)
	// Block size 4: block 0 has 2/4 non-zero, block 1 all zero.
	d.Data[0], d.Data[1] = 1, 1
	if got := DensityWithinBlocks(d, 4); got != 0.5 {
		t.Fatalf("density = %v, want 0.5", got)
	}
	if got := DensityWithinBlocks(NewDense(8), 4); got != 0 {
		t.Fatalf("all-zero density = %v, want 0", got)
	}
}

func TestBitmapSparsityRelation(t *testing.T) {
	// With block size 1, block sparsity equals element sparsity.
	r := rand.New(rand.NewSource(7))
	d := NewDense(4096)
	for i := range d.Data {
		if r.Float64() < 0.25 {
			d.Data[i] = float32(r.NormFloat64())
		}
	}
	m := ComputeBitmap(d, 1)
	if got, want := m.BlockSparsity(), d.Sparsity(); got != want {
		t.Fatalf("bs=1 block sparsity %v != element sparsity %v", got, want)
	}
	// Larger blocks can only be denser (block sparsity monotonically
	// non-increasing in block size for nested block structures of power 2).
	prev := 1.0
	for _, bs := range []int{1, 2, 4, 8, 16, 32} {
		s := ComputeBitmap(d, bs).BlockSparsity()
		if s > prev+1e-12 {
			t.Fatalf("block sparsity increased with block size: bs=%d s=%v prev=%v", bs, s, prev)
		}
		prev = s
	}
}
