package protocol

import (
	"math"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Unit tests for package internals: the shard and column arithmetic, the
// accumulator modes, the result archive, and the finished-tensor tracker.
// (Machine-level behavior is covered by the trace tests in
// machine_test.go.)

func TestShardMath(t *testing.T) {
	// Shards must partition [0, nb) exactly.
	for _, tc := range []struct{ streams, nb int }{{1, 10}, {4, 10}, {4, 3}, {7, 100}, {16, 16}} {
		eff := EffectiveStreams(tc.streams, tc.nb)
		covered := 0
		prevHi := 0
		for s := 0; s < eff; s++ {
			lo, hi := Shard(s, eff, tc.nb)
			if lo != prevHi {
				t.Fatalf("streams=%d nb=%d: shard %d starts at %d, want %d", tc.streams, tc.nb, s, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative shard")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.nb || prevHi != tc.nb {
			t.Fatalf("streams=%d nb=%d: covered %d", tc.streams, tc.nb, covered)
		}
	}
	if EffectiveStreams(4, 0) != 1 {
		t.Fatal("EffectiveStreams(4,0) != 1")
	}
}

func TestColumnHelpers(t *testing.T) {
	// FirstInColumn over [10, 18) width 4: columns hold 10..17 by residue.
	cases := []struct{ c, want int }{{0, 12}, {1, 13}, {2, 10}, {3, 11}}
	for _, tc := range cases {
		if got := FirstInColumn(10, 18, tc.c, 4); got != tc.want {
			t.Errorf("FirstInColumn(10,18,%d,4) = %d, want %d", tc.c, got, tc.want)
		}
	}
	if got := FirstInColumn(10, 11, 2, 4); got != 10 {
		t.Errorf("FirstInColumn single = %d", got)
	}
	if got := FirstInColumn(10, 11, 0, 4); got != -1 {
		t.Errorf("FirstInColumn empty column = %d, want -1", got)
	}

	bm := tensor.NewBitmap(20)
	bm.Set(14) // column 2 of width 4
	bm.Set(18) // column 2
	if got := NextNonZeroInColumn(bm.Get, 10, 10, 20, 2, 4); got != 14 {
		t.Errorf("NextNonZeroInColumn after 10 = %d, want 14", got)
	}
	if got := NextNonZeroInColumn(bm.Get, 14, 10, 20, 2, 4); got != 18 {
		t.Errorf("NextNonZeroInColumn after 14 = %d, want 18", got)
	}
	if got := NextNonZeroInColumn(bm.Get, 18, 10, 20, 2, 4); got != -1 {
		t.Errorf("NextNonZeroInColumn after 18 = %d, want -1", got)
	}
	if got := NextNonZeroInColumn(bm.Get, -1, 10, 20, 2, 4); got != 14 {
		t.Errorf("NextNonZeroInColumn from start = %d, want 14", got)
	}
}

func TestBlockLen(t *testing.T) {
	if BlockLen(0, 256, 1000) != 256 {
		t.Fatal("full block")
	}
	if BlockLen(3, 256, 1000) != 1000-768 {
		t.Fatal("tail block")
	}
	if BlockLen(4, 256, 1000) != 0 {
		t.Fatal("past-end block")
	}
}

func TestAccumFloat(t *testing.T) {
	a := newAccum(Config{})
	a.add(1, []float32{1, 2})
	a.add(0, []float32{10, 20, 30}) // longer contribution grows the slot
	got := a.appendResult(nil)
	if len(got) != 3 || got[0] != 11 || got[1] != 22 || got[2] != 30 {
		t.Fatalf("result = %v", got)
	}
	a.reset()
	a.add(0, []float32{5})
	if got := a.appendResult(nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("after reset: %v", got)
	}
}

func TestAccumQuantized(t *testing.T) {
	a := newAccum(Config{QuantizeScale: 4}) // quarter resolution
	a.add(0, []float32{0.1})                // 0.1*4 = 0.4 rounds to 0
	a.add(1, []float32{0.5})                // 0.5*4 = 2
	got := a.appendResult(nil)
	if len(got) != 1 {
		t.Fatalf("result = %v", got)
	}
	if got[0] != 0.5 { // (0 + 2)/4
		t.Fatalf("quantized sum = %v, want 0.5", got[0])
	}
}

func TestAccumDeterministicOrder(t *testing.T) {
	// Floating-point addition is not associative; the deterministic
	// accumulator must reduce in ascending worker-ID order regardless of
	// arrival order.
	mk := func(order []int) []float32 {
		a := newAccum(Config{DeterministicOrder: true})
		vals := map[int][]float32{
			0: {1e8}, 1: {-1e8}, 2: {1}, 3: {0.5},
		}
		for _, w := range order {
			a.add(w, vals[w])
		}
		return a.appendResult(nil)
	}
	r1 := mk([]int{0, 1, 2, 3})
	r2 := mk([]int{3, 2, 1, 0})
	r3 := mk([]int{2, 0, 3, 1})
	if r1[0] != r2[0] || r2[0] != r3[0] {
		t.Fatalf("order-dependent results: %v %v %v", r1, r2, r3)
	}
}

func TestAccumDeterministicQuantized(t *testing.T) {
	a := newAccum(Config{DeterministicOrder: true, QuantizeScale: 1 << 10})
	a.add(1, []float32{0.25})
	a.add(0, []float32{0.5})
	got := a.appendResult(nil)
	if math.Abs(float64(got[0])-0.75) > 1e-3 {
		t.Fatalf("det+quant = %v", got)
	}
}

func TestArchiveEviction(t *testing.T) {
	cfg := Config{Workers: 1, Aggregators: []int{1}, Reliable: true}.WithDefaults()
	a := NewAggregatorMachine(cfg, 1)
	for tid := uint32(1); tid <= 40; tid++ {
		res := &wire.Packet{Type: wire.TypeResult, TensorID: tid, BlockSize: 4}
		a.archiveResult(0, res, wire.EncodedPacketSize(res))
	}
	if n := len(a.archive[0]); n != ArchiveDepth {
		t.Fatalf("archive holds %d entries, want %d", n, ArchiveDepth)
	}
	if a.archived(0, 40) == nil {
		t.Fatal("archive lost the newest tensor")
	}
	if a.archived(0, 40-ArchiveDepth) != nil {
		t.Fatal("archive kept an evicted tensor")
	}
	if !a.isFinished(0, 3) {
		t.Fatal("isFinished should report evicted tensor 3")
	}
	if a.isFinished(0, 41) {
		t.Fatal("isFinished must not report future tensor")
	}
}

func TestFinishedTrackerOutOfOrder(t *testing.T) {
	f := &finishedTracker{}
	f.add(3)
	if f.has(1) || f.has(2) || !f.has(3) {
		t.Fatal("out-of-order add wrong")
	}
	f.add(1)
	if !f.has(1) || f.has(2) {
		t.Fatal("prefix tracking wrong")
	}
	f.add(2)
	if f.upTo != 3 {
		t.Fatalf("prefix did not collapse: upTo=%d except=%v", f.upTo, f.except)
	}
	if len(f.except) != 0 {
		t.Fatalf("exceptions not drained: %v", f.except)
	}
	f.add(2) // re-add below prefix: no-op
	if f.upTo != 3 {
		t.Fatal("re-add changed prefix")
	}
}
