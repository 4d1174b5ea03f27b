package tensor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(10)
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
	if d.NonZeroCount() != 0 {
		t.Fatalf("fresh tensor has %d non-zeros", d.NonZeroCount())
	}
	d.Data[3] = 1.5
	d.Data[7] = -2
	if got := d.NonZeroCount(); got != 2 {
		t.Fatalf("NonZeroCount = %d, want 2", got)
	}
	if got := d.Sparsity(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Sparsity = %v, want 0.8", got)
	}
	c := d.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	c.Data[0] = 9
	if d.Data[0] == 9 {
		t.Fatal("clone aliases original")
	}
	d.Zero()
	if d.NonZeroCount() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestDenseAdd(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3})
	b := FromSlice([]float32{10, 20, 30})
	a.Add(b)
	want := []float32{11, 22, 33}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add[%d] = %v, want %v", i, a.Data[i], v)
		}
	}
}

func TestDenseAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewDense(3).Add(NewDense(4))
}

func TestBlockViews(t *testing.T) {
	d := NewDense(10)
	for i := range d.Data {
		d.Data[i] = float32(i)
	}
	if nb := d.NumBlocks(4); nb != 3 {
		t.Fatalf("NumBlocks(4) = %d, want 3", nb)
	}
	if got := d.Block(0, 4); len(got) != 4 || got[0] != 0 {
		t.Fatalf("Block(0) = %v", got)
	}
	// Tail block is short.
	if got := d.Block(2, 4); len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("tail Block = %v", got)
	}
	d.AddBlock(4, []float32{1, 1, 1, 1})
	if d.Data[4] != 5 || d.Data[7] != 8 {
		t.Fatalf("AddBlock wrong: %v", d.Data)
	}
	d.SetBlock(0, []float32{-1, -2})
	if d.Data[0] != -1 || d.Data[1] != -2 || d.Data[2] != 2 {
		t.Fatalf("SetBlock wrong: %v", d.Data)
	}
}

func TestScaleAndNorms(t *testing.T) {
	d := FromSlice([]float32{3, 4})
	if got := d.Norm2(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	d.Scale(2)
	if d.Data[0] != 6 || d.Data[1] != 8 {
		t.Fatalf("Scale wrong: %v", d.Data)
	}
	d2 := FromSlice([]float32{0, 0, 3, 4, 0, 0})
	if got := d2.BlockNorm2(1, 2); math.Abs(got-5) > 1e-9 {
		t.Fatalf("BlockNorm2 = %v, want 5", got)
	}
	if got := d2.Sum(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Sum = %v, want 7", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2})
	b := FromSlice([]float32{1.0000001, 2})
	if !a.ApproxEqual(b, 1e-5) {
		t.Fatal("should be approx equal")
	}
	if a.ApproxEqual(b, 1e-9) {
		t.Fatal("should not be approx equal at tight tol")
	}
	if a.ApproxEqual(NewDense(3), 1) {
		t.Fatal("length mismatch should be unequal")
	}
}

func TestCOORoundTrip(t *testing.T) {
	d := NewDense(100)
	d.Data[5] = 1
	d.Data[42] = -3
	d.Data[99] = 0.5
	s := FromDense(d)
	if s.Len() != 3 {
		t.Fatalf("COO len = %d, want 3", s.Len())
	}
	if s.NNZBytes() != 24 {
		t.Fatalf("NNZBytes = %d, want 24", s.NNZBytes())
	}
	back := s.ToDense()
	if !back.Equal(d) {
		t.Fatal("COO round trip mismatch")
	}
}

func TestCOOAppendOrdering(t *testing.T) {
	s := NewCOO(10)
	s.Append(1, 1)
	s.Append(5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order key")
		}
	}()
	s.Append(3, 3)
}

// TestCOOAppendRun: the bulk form of Append refuses a run that would
// break the ordering or leave [0, Dim) with an error instead of a panic,
// and a refused run changes nothing.
func TestCOOAppendRun(t *testing.T) {
	s := NewCOO(100)
	if err := s.AppendRun([]int32{1, 5}, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun([]int32{6, 90}, []float32{3, 4}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		keys []int32
		vals []float32
	}{
		{[]int32{90}, []float32{1}},            // not above the last key
		{[]int32{95, 95}, []float32{1, 2}},     // repeats inside the run
		{[]int32{99, 98}, []float32{1, 2}},     // descends inside the run
		{[]int32{95}, nil},                     // a key without a value
		{[]int32{100}, []float32{1}},           // not below Dim
		{[]int32{95, 100}, []float32{1, 2}},    // last key not below Dim
		{[]int32{math.MinInt32}, []float32{1}}, // a wire key >= 2^31
	} {
		if err := s.AppendRun(bad.keys, bad.vals); !errors.Is(err, ErrKeyOrder) {
			t.Fatalf("AppendRun(%v, %v) = %v, want ErrKeyOrder", bad.keys, bad.vals, err)
		}
	}
	if !slices.Equal(s.Keys, []int32{1, 5, 6, 90}) || !slices.Equal(s.Values, []float32{1, 2, 3, 4}) {
		t.Fatalf("after refused runs: %v %v", s.Keys, s.Values)
	}
	// An empty output has no last key to compare with: a negative first
	// key is still refused, and the largest int32 key is accepted when
	// Dim is above it.
	empty := NewCOO(100)
	if err := empty.AppendRun([]int32{-5, 3}, []float32{1, 2}); !errors.Is(err, ErrKeyOrder) || empty.Len() != 0 {
		t.Fatalf("negative first key on an empty output: err %v, %d pairs", err, empty.Len())
	}
	if math.MaxInt > math.MaxInt32 {
		dim := int64(math.MaxInt32) + 1
		top := NewCOO(int(dim))
		if err := top.AppendRun([]int32{0, math.MaxInt32}, []float32{1, 2}); err != nil || top.Len() != 2 {
			t.Fatalf("key MaxInt32 at Dim 2^31: err %v, %d pairs", err, top.Len())
		}
	}
}

func TestCOOAdd(t *testing.T) {
	a := NewCOO(10)
	a.Append(1, 1)
	a.Append(3, 2)
	b := NewCOO(10)
	b.Append(2, 5)
	b.Append(3, 7)
	b.Append(9, 1)
	sum := a.AddCOO(b)
	wantK := []int32{1, 2, 3, 9}
	wantV := []float32{1, 5, 9, 1}
	if len(sum.Keys) != len(wantK) {
		t.Fatalf("merged keys = %v", sum.Keys)
	}
	for i := range wantK {
		if sum.Keys[i] != wantK[i] || sum.Values[i] != wantV[i] {
			t.Fatalf("merge[%d] = (%d,%v), want (%d,%v)", i, sum.Keys[i], sum.Values[i], wantK[i], wantV[i])
		}
	}
}

func TestCOONormalize(t *testing.T) {
	s := &COO{Dim: 10, Keys: []int32{5, 1, 5, 0}, Values: []float32{1, 2, 3, 4}}
	s.Normalize()
	wantK := []int32{0, 1, 5}
	wantV := []float32{4, 2, 4}
	for i := range wantK {
		if s.Keys[i] != wantK[i] || s.Values[i] != wantV[i] {
			t.Fatalf("normalize[%d] = (%d,%v)", i, s.Keys[i], s.Values[i])
		}
	}
}

// Property: COO merge equals dense addition.
func TestCOOAddMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(200)
		a, b := NewDense(dim), NewDense(dim)
		for i := 0; i < dim; i++ {
			if r.Float64() < 0.3 {
				a.Data[i] = float32(r.NormFloat64())
			}
			if r.Float64() < 0.3 {
				b.Data[i] = float32(r.NormFloat64())
			}
		}
		merged := FromDense(a).AddCOO(FromDense(b)).ToDense()
		want := a.Clone()
		want.Add(b)
		// Merged may retain explicit zeros when values cancel; compare densely.
		return merged.Equal(want)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCOOClone(t *testing.T) {
	s := NewCOO(10)
	s.Append(1, 2)
	c := s.Clone()
	c.Values[0] = 9
	if s.Values[0] != 2 {
		t.Fatal("Clone aliases values")
	}
	if c.Dim != 10 || c.Keys[0] != 1 {
		t.Fatalf("clone wrong: %+v", c)
	}
}
