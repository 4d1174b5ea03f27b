package collective

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// group creates n communicators over an in-process network.
func group(t testing.TB, n int) []*Comm {
	t.Helper()
	nw := transport.NewNetwork(n, 4096)
	cs := make([]*Comm, n)
	for i := 0; i < n; i++ {
		c, err := NewComm(nw.Conn(i), n)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	t.Cleanup(func() {
		for _, c := range cs {
			c.Close()
		}
	})
	return cs
}

// runAll invokes fn concurrently on every rank and waits.
func runAll(t testing.TB, n int, fn func(rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective timed out")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func randVecs(n, workers int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, workers)
	for w := range out {
		out[w] = make([]float32, n)
		for i := range out[w] {
			out[w][i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func sumVecs(in [][]float32) []float32 {
	out := make([]float32, len(in[0]))
	for _, v := range in {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

func checkVecs(t testing.TB, got [][]float32, want []float32, tol float64) {
	t.Helper()
	for r, g := range got {
		for i := range want {
			d := float64(g[i]) - float64(want[i])
			if d > tol || d < -tol {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, g[i], want[i])
			}
		}
	}
}

func TestRingAllReduce(t *testing.T) {
	// 100 003 elements split into segments of several frames each, the
	// last one short, and segments of different lengths at 3 ranks.
	for _, tc := range []struct{ n, elems int }{{1, 10_000}, {2, 10_000}, {3, 10_000}, {4, 10_000}, {8, 10_000}, {2, 100_003}, {3, 100_003}} {
		cs := group(t, tc.n)
		data := randVecs(tc.elems, tc.n, int64(tc.n))
		want := sumVecs(data)
		runAll(t, tc.n, func(r int) error { return cs[r].RingAllReduce(data[r]) })
		checkVecs(t, data, want, 1e-3)
	}
}

func TestRingAllReduceSmall(t *testing.T) {
	// Vectors shorter than the rank count exercise empty segments.
	cs := group(t, 4)
	data := randVecs(3, 4, 7)
	want := sumVecs(data)
	runAll(t, 4, func(r int) error { return cs[r].RingAllReduce(data[r]) })
	checkVecs(t, data, want, 1e-4)
}

func randCOO(dim, nnz int, rng *rand.Rand) *tensor.COO {
	d := tensor.NewDense(dim)
	for _, i := range rng.Perm(dim)[:nnz] {
		d.Data[i] = float32(rng.NormFloat64()) + 0.01
	}
	return tensor.FromDense(d)
}

func TestAGsparseAllReduce(t *testing.T) {
	// Parts of different sizes: an empty one, and one longer than a frame.
	for _, tc := range []struct {
		dim int
		nnz []int
	}{
		{2_000, []int{100, 100, 100, 100}},
		{20_000, []int{100, 0, 10_000, 37}}, // a frame holds 8 185 pairs
		{500, []int{50}},
	} {
		n := len(tc.nnz)
		cs := group(t, n)
		rng := rand.New(rand.NewSource(11))
		ins := make([]*tensor.COO, n)
		for r := range ins {
			ins[r] = randCOO(tc.dim, tc.nnz[r], rng)
		}
		wantDense := tensor.NewDense(tc.dim)
		for _, in := range ins {
			wantDense.Add(in.ToDense())
		}
		outs := make([]*tensor.COO, n)
		runAll(t, n, func(r int) error {
			var err error
			outs[r], err = cs[r].AGsparseAllReduce(ins[r])
			return err
		})
		for r, out := range outs {
			if err := out.Check(); err != nil || !out.ToDense().ApproxEqual(wantDense, 1e-4) {
				t.Fatalf("nnz %v: rank %d mismatch (%v)", tc.nnz, r, err)
			}
		}
	}
}

// Every rank returns exactly the worker-ordered sum: with values spread
// over many magnitudes and keys shared by three and four ranks, another
// order of addition gives other values.
func TestAGsparseRanksAgreeBitwise(t *testing.T) {
	const n, dim = 4, 1_000
	rng := rand.New(rand.NewSource(5))
	ins := make([]*tensor.COO, n)
	want := make([]float32, dim)
	for r := range ins {
		d := tensor.NewDense(dim)
		for _, i := range rng.Perm(dim)[:700] {
			d.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)))
		}
		ins[r] = tensor.FromDense(d)
		for i, v := range d.Data {
			want[i] += v
		}
	}
	cs := group(t, n)
	outs := make([]*tensor.COO, n)
	runAll(t, n, func(r int) error {
		var err error
		outs[r], err = cs[r].AGsparseAllReduce(ins[r])
		return err
	})
	for r, out := range outs {
		for i, v := range out.ToDense().Data {
			if v != want[i] {
				t.Fatalf("rank %d elem %d: %v, worker-ordered sum %v", r, i, v, want[i])
			}
		}
	}
}

// One ring op and one AGsparse op release every frame they receive.
func TestCollectivesLeakNoBuffers(t *testing.T) {
	const n = 3
	audit := obs.StartLeakAudit()
	cs := group(t, n)
	data := randVecs(100_003, n, 3)
	rng := rand.New(rand.NewSource(3))
	ins := make([]*tensor.COO, n)
	for r := range ins {
		ins[r] = randCOO(20_000, 10_000, rng)
	}
	runAll(t, n, func(r int) error {
		if err := cs[r].RingAllReduce(data[r]); err != nil {
			return err
		}
		_, err := cs[r].AGsparseAllReduce(ins[r])
		return err
	})
	for _, c := range cs {
		c.Close()
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatal(obs.LeaksErr(leaks))
	}
}

// A frame that does not fit what rank 0 awaits is an error, not a panic:
// frames the left neighbour (a bare endpoint here) has sent ahead of rank
// 0's first op, op 1.
func TestCommRejectsMalformedFrames(t *testing.T) {
	sparse := func(keys ...int32) []byte {
		p := wire.SparsePacket{NextKey: wire.InfKey, Keys: keys, Values: make([]float32, len(keys))}
		return wire.AppendSparsePacket(nil, &p)
	}
	ring := func(c *Comm) error { return c.RingAllReduce(make([]float32, 10)) }
	ag := func(c *Comm) error { _, err := c.AGsparseAllReduce(tensor.NewCOO(100)); return err }
	for _, tc := range []struct {
		name    string
		tag     uint64
		payload []byte
		op      func(*Comm) error
	}{
		{"ring frame longer than its segment", 1 << 16, make([]byte, 4*6), ring},
		{"ring frame of a partial float", 1 << 16, make([]byte, 7), ring},
		{"ring frame under another tag", 1<<16 | 64, make([]byte, 4*5), ring},
		{"truncated sparse frame", 1 << 16, sparse(1, 2, 3)[:16+8*3-5], ag},
		{"sparse keys out of order", 1 << 16, sparse(3, 2), ag},
		{"sparse key past the tensor", 1 << 16, sparse(100), ag},
	} {
		nw := transport.NewNetwork(2, 16)
		c, err := NewComm(nw.Conn(0), 2)
		if err != nil {
			t.Fatal(err)
		}
		left := nw.Conn(1)
		f := binary.LittleEndian.AppendUint64(nil, tc.tag)
		if err := left.Send(0, append(f, tc.payload...)); err != nil {
			t.Fatal(err)
		}
		if err := tc.op(c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		c.Close()
		left.Close()
	}
}

func TestSegmentPartition(t *testing.T) {
	// Segments must tile [0, n).
	for _, tc := range []struct{ p, n int }{{4, 100}, {3, 10}, {8, 7}, {1, 5}} {
		covered := 0
		for s := 0; s < tc.p; s++ {
			lo, hi := segment(s, tc.p, tc.n)
			covered += hi - lo
		}
		if covered != tc.n {
			t.Fatalf("p=%d n=%d covered %d", tc.p, tc.n, covered)
		}
	}
	// Negative wraps.
	lo, hi := segment(-1, 4, 100)
	if lo != 75 || hi != 100 {
		t.Fatalf("segment(-1) = [%d,%d)", lo, hi)
	}
}

// Property: ring AllReduce agrees with the serial sum at any group size
// and vector length.
func TestAllReduceAlgorithmsAgreeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		size := 1 + rng.Intn(2_000)
		data := randVecs(size, n, seed)
		want := sumVecs(data)
		cs := group(t, n)
		runAll(t, n, func(r int) error { return cs[r].RingAllReduce(data[r]) })
		for r := 0; r < n; r++ {
			for i := range want {
				if d := float64(data[r][i]) - float64(want[i]); d > 1e-3 || d < -1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCommAccessors(t *testing.T) {
	cs := group(t, 3)
	if cs[1].Rank() != 1 || cs[1].Size() != 3 {
		t.Fatalf("rank/size = %d/%d", cs[1].Rank(), cs[1].Size())
	}
	// One ring op over 30 elements: 2(n-1) frames a rank, 10 floats and
	// the tag each.
	data := randVecs(30, 3, 1)
	runAll(t, 3, func(r int) error { return cs[r].RingAllReduce(data[r]) })
	if got, want := cs[1].BytesSent(), int64(4*(8+4*10)); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
}
