package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// allReduceSparse runs the key-value collective across all workers and
// returns each worker's result.
func (c *cluster) allReduceSparse(t testing.TB, inputs []*tensor.COO) []*tensor.COO {
	t.Helper()
	outs := make([]*tensor.COO, len(c.workers))
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			outs[i], errs[i] = w.AllReduceSparse(inputs[i])
		}(i, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("AllReduceSparse timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return outs
}

func randomCOO(dim, nnz int, rng *rand.Rand) *tensor.COO {
	s := tensor.NewCOO(dim)
	perm := rng.Perm(dim)
	if nnz > dim {
		nnz = dim
	}
	keys := append([]int(nil), perm[:nnz]...)
	// COO requires ascending keys.
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		s.Append(int32(k), float32(rng.NormFloat64())+0.1)
	}
	return s
}

func expectedSparseSum(inputs []*tensor.COO) *tensor.Dense {
	out := tensor.NewDense(inputs[0].Dim)
	for _, in := range inputs {
		out.Add(in.ToDense())
	}
	return out
}

func TestSparseAllReduceBasic(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 2}
	c := startCluster(t, cfg, 0, 1)
	a := tensor.NewCOO(20)
	a.Append(1, 1)
	a.Append(5, 2)
	a.Append(9, 3)
	b := tensor.NewCOO(20)
	b.Append(5, 10)
	b.Append(15, 4)
	outs := c.allReduceSparse(t, []*tensor.COO{a, b})
	want := expectedSparseSum([]*tensor.COO{a, b})
	for w, out := range outs {
		got := out.ToDense()
		if !got.ApproxEqual(want, 1e-5) {
			t.Fatalf("worker %d: got %v want %v", w, got.Data, want.Data)
		}
	}
}

func TestSparseAllReduceOverlapExtremes(t *testing.T) {
	cfg := Config{Workers: 3, Reliable: true, BlockSize: 8}
	t.Run("identical", func(t *testing.T) {
		c := startCluster(t, cfg, 0, 2)
		rng := rand.New(rand.NewSource(3))
		base := randomCOO(500, 60, rng)
		inputs := []*tensor.COO{base.Clone(), base.Clone(), base.Clone()}
		outs := c.allReduceSparse(t, inputs)
		want := expectedSparseSum(inputs)
		for w, out := range outs {
			if !out.ToDense().ApproxEqual(want, 1e-4) {
				t.Fatalf("worker %d mismatch", w)
			}
		}
	})
	t.Run("disjoint", func(t *testing.T) {
		c := startCluster(t, cfg, 0, 3)
		inputs := make([]*tensor.COO, 3)
		for w := range inputs {
			s := tensor.NewCOO(300)
			for k := w * 100; k < (w+1)*100; k += 3 {
				s.Append(int32(k), float32(k))
			}
			inputs[w] = s
		}
		outs := c.allReduceSparse(t, inputs)
		want := expectedSparseSum(inputs)
		for w, out := range outs {
			if !out.ToDense().ApproxEqual(want, 1e-4) {
				t.Fatalf("worker %d mismatch", w)
			}
		}
	})
}

func TestSparseAllReduceEmpty(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 4}
	c := startCluster(t, cfg, 0, 4)
	inputs := []*tensor.COO{tensor.NewCOO(100), tensor.NewCOO(100)}
	outs := c.allReduceSparse(t, inputs)
	for w, out := range outs {
		if out.Len() != 0 {
			t.Fatalf("worker %d: expected empty result, got %d entries", w, out.Len())
		}
	}
}

func TestSparseAllReduceOneEmptyWorker(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 4}
	c := startCluster(t, cfg, 0, 5)
	a := tensor.NewCOO(50)
	a.Append(7, 1.5)
	a.Append(33, -2)
	inputs := []*tensor.COO{a, tensor.NewCOO(50)}
	outs := c.allReduceSparse(t, inputs)
	want := expectedSparseSum(inputs)
	for w, out := range outs {
		if !out.ToDense().ApproxEqual(want, 1e-5) {
			t.Fatalf("worker %d mismatch", w)
		}
	}
}

func TestSparseAllReduceRequiresReliable(t *testing.T) {
	cfg := Config{Workers: 1, Reliable: false, Aggregators: []int{1}}
	c := startCluster(t, cfg, 0, 6)
	if _, err := c.workers[0].AllReduceSparse(tensor.NewCOO(10)); err == nil {
		t.Fatal("expected error for unreliable sparse mode")
	}
}

func TestSparseAllReduceKeyRange(t *testing.T) {
	cfg := Config{Workers: 1, Reliable: true}
	c := startCluster(t, cfg, 0, 7)
	s := &tensor.COO{Dim: 1 << 31, Keys: []int32{-2}, Values: []float32{1}} // MoreComing on the wire
	if _, err := c.workers[0].AllReduceSparse(s); !errors.Is(err, tensor.ErrKeyOrder) {
		t.Fatalf("err = %v, want a key-range error wrapping tensor.ErrKeyOrder", err)
	}
}

func TestSparseAllReduceSequential(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 16}
	c := startCluster(t, cfg, 0, 8)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 3; round++ {
		inputs := []*tensor.COO{randomCOO(2_000, 150, rng), randomCOO(2_000, 150, rng)}
		outs := c.allReduceSparse(t, inputs)
		want := expectedSparseSum(inputs)
		for w, out := range outs {
			if !out.ToDense().ApproxEqual(want, 1e-4) {
				t.Fatalf("round %d worker %d mismatch", round, w)
			}
		}
	}
}

// Property: sparse AllReduce equals dense elementwise sum for arbitrary
// shapes and sparsity, and results arrive in strictly ascending key order.
func TestSparseAllReduceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		workers := 1 + r.Intn(4)
		cfg := Config{Workers: workers, Reliable: true, BlockSize: 1 + r.Intn(32)}
		c := startCluster(t, cfg, 0, seed)
		dim := 10 + r.Intn(2_000)
		inputs := make([]*tensor.COO, workers)
		for w := range inputs {
			inputs[w] = randomCOO(dim, r.Intn(dim/2+1), r)
		}
		outs := c.allReduceSparse(t, inputs)
		want := expectedSparseSum(inputs)
		for _, out := range outs {
			// Keys strictly ascending is enforced by COO.Append already;
			// verify numerical equality.
			if !out.ToDense().ApproxEqual(want, 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseAllReduceEdgeShapes runs the inputs on which Algorithm 3's
// flow control is one-sided: while one worker holds the minimum for its
// whole stream the others wait, and every flush fans out to every worker's
// queue. Each shape runs at the default packet shape (where it is a packet
// or two) and at a small one (hundreds of packets). allReduceSparse fails
// the test on any error; the one these shapes could cause is
// ErrOpBackpressure, from a worker's OpQueueLen-deep (default 1024) queue
// overflowing with result chunks.
//
// A worker that holds the minimum now and then is flow-controlled — the
// rest cannot pass it, so its queue holds a few chunks per packet in
// flight (the fan-in case: some 1 250 flushes through 1 024-deep queues). A
// worker that never holds it (its keys all above, or none at all) is not,
// in the paper's Algorithm 3 or here: it is sent every flush and nobody
// waits for it to read them. The two-worker inputs are sized so that a
// whole collective is under 1 024 chunks at the small shape, which makes
// those cases a check of the protocol and not of the scheduler.
//
// The key edges follow the shapes: the largest int32 key round-trips, a
// negative input key fails at the worker that passed it, and a wire key
// with the high bit set (negative as an int32) is forwarded by the
// aggregator, which keeps serving, and refused by every worker.
func TestSparseAllReduceEdgeShapes(t *testing.T) {
	span := func(dim, from, n, stride int, v float32) *tensor.COO {
		s := tensor.NewCOO(dim)
		for i := 0; i < n; i++ {
			s.Append(int32(from+i*stride), v+float32(i))
		}
		return s
	}
	const dim = 1 << 20
	shapes := []struct {
		name   string
		inputs []*tensor.COO
	}{
		{"disjoint ranges", []*tensor.COO{span(dim, 0, 12000, 3, 1), span(dim, 500000, 12000, 3, 2)}},
		{"one empty worker", []*tensor.COO{span(dim, 7, 12000, 5, 1), tensor.NewCOO(dim)}},
		{"all keys equal", []*tensor.COO{span(dim, 11, 12000, 2, 1), span(dim, 11, 12000, 2, -3)}},
		{"shorter than a packet", []*tensor.COO{span(dim, 5, 3, 9, 1), span(dim, 8, 2, 9, 2)}},
	}
	fanIn := make([]*tensor.COO, 8)
	rng := rand.New(rand.NewSource(31))
	for w := range fanIn {
		fanIn[w] = tensor.NewCOO(dim)
		for k := rng.Intn(40); k < dim && fanIn[w].Len() < 5000; k += 1 + rng.Intn(40) {
			fanIn[w].Append(int32(k), float32(rng.NormFloat64()))
		}
	}
	shapes = append(shapes, struct {
		name   string
		inputs []*tensor.COO
	}{"8-worker fan-in", fanIn})

	for _, sh := range shapes {
		for _, small := range []bool{false, true} {
			name := sh.name + "/default shape"
			cfg := Config{Workers: len(sh.inputs), Reliable: true}
			if small {
				name = sh.name + "/small packets"
				cfg.BlockSize, cfg.FusionWidth = 8, 4
			}
			t.Run(name, func(t *testing.T) {
				c := startCluster(t, cfg, 0, 41)
				outs := c.allReduceSparse(t, sh.inputs)
				want := sh.inputs[0]
				for _, in := range sh.inputs[1:] {
					want = want.AddCOO(in)
				}
				for w, out := range outs {
					if !slices.Equal(out.Keys, want.Keys) {
						t.Fatalf("worker %d: %d keys, want %d (or they differ)", w, out.Len(), want.Len())
					}
					for i, v := range out.Values {
						if d := v - want.Values[i]; d > 1e-3 || d < -1e-3 {
							t.Fatalf("worker %d key %d: %v, want %v", w, out.Keys[i], v, want.Values[i])
						}
					}
				}
			})
		}
	}

	cfg := Config{Workers: 2, Reliable: true}
	t.Run("key MaxInt32 at Dim 2^31", func(t *testing.T) {
		if math.MaxInt == math.MaxInt32 {
			t.Skip("Dim 2^31 does not fit an int")
		}
		top := int(int64(math.MaxInt32) + 1)
		a := &tensor.COO{Dim: top, Keys: []int32{0, math.MaxInt32}, Values: []float32{1, 2}}
		b := &tensor.COO{Dim: top, Keys: []int32{math.MaxInt32}, Values: []float32{3}}
		for w, out := range startCluster(t, cfg, 0, 43).allReduceSparse(t, []*tensor.COO{a, b}) {
			if !slices.Equal(out.Keys, []int32{0, math.MaxInt32}) || !slices.Equal(out.Values, []float32{1, 5}) {
				t.Fatalf("worker %d: %v %v, want [0 %d] [1 5]", w, out.Keys, out.Values, math.MaxInt32)
			}
		}
	})
	t.Run("negative input key", func(t *testing.T) {
		c := startCluster(t, cfg, 0, 44)
		in := &tensor.COO{Dim: 16, Keys: []int32{-5, 3}, Values: []float32{1, 2}}
		if _, err := c.workers[0].AllReduceSparse(in); !errors.Is(err, tensor.ErrKeyOrder) {
			t.Fatalf("err = %v, want the passing worker to fail with tensor.ErrKeyOrder", err)
		}
	})
	t.Run("wire key with the high bit set", func(t *testing.T) {
		c := startClusterOn(t, cfg, func(id int, conn transport.Conn) transport.Conn {
			if id == 0 {
				return highBitConn{conn}
			}
			return conn
		})
		ins := []*tensor.COO{
			{Dim: 16, Keys: []int32{3, 9}, Values: []float32{1, 2}},
			{Dim: 16, Keys: []int32{5}, Values: []float32{3}},
		}
		errs := make([]error, len(ins))
		var wg sync.WaitGroup
		for i, w := range c.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = w.AllReduceSparse(ins[i])
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if !errors.Is(err, protocol.ErrSparseResult) || !errors.Is(err, tensor.ErrKeyOrder) {
				t.Errorf("worker %d: err = %v, want ErrSparseResult wrapping tensor.ErrKeyOrder", w, err)
			}
		}
		// The cluster's cleanup fails the test if the aggregator stopped.
	})
}

// highBitConn sets the high bit of the last key of every sparse data packet
// it sends: a key of 2^31 or more on the wire, which no int32 input holds.
type highBitConn struct{ transport.Conn }

func (c highBitConn) Send(to int, data []byte) error {
	if wire.PeekType(data) == wire.TypeSparseData {
		if p, err := wire.DecodeSparsePacket(data); err == nil && len(p.Keys) > 0 {
			p.Keys[len(p.Keys)-1] |= math.MinInt32
			data = wire.AppendSparsePacket(data[:0], p)
		}
	}
	return c.Conn.Send(to, data)
}
