package collective

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
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
	for _, n := range []int{1, 2, 3, 4, 8} {
		cs := group(t, n)
		data := randVecs(10_000, n, int64(n))
		want := sumVecs(data)
		runAll(t, n, func(r int) error { return cs[r].RingAllReduce(data[r]) })
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

func TestRingAllGatherVar(t *testing.T) {
	n := 3
	cs := group(t, n)
	payloads := [][]byte{{1}, {2, 2}, {3, 3, 3}}
	outs := make([][][]byte, n)
	runAll(t, n, func(r int) error {
		var err error
		outs[r], err = cs[r].RingAllGatherVar(payloads[r])
		return err
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if len(outs[r][p]) != p+1 {
				t.Fatalf("rank %d: payload %d has len %d", r, p, len(outs[r][p]))
			}
		}
	}
}

func randCOO(dim, nnz int, rng *rand.Rand) *tensor.COO {
	d := tensor.NewDense(dim)
	for _, i := range rng.Perm(dim)[:nnz] {
		d.Data[i] = float32(rng.NormFloat64()) + 0.01
	}
	return tensor.FromDense(d)
}

func TestAGsparseAllReduce(t *testing.T) {
	n := 4
	cs := group(t, n)
	rng := rand.New(rand.NewSource(11))
	ins := make([]*tensor.COO, n)
	for r := range ins {
		ins[r] = randCOO(2_000, 100, rng)
	}
	wantDense := tensor.NewDense(2_000)
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
		if !out.ToDense().ApproxEqual(wantDense, 1e-4) {
			t.Fatalf("rank %d mismatch", r)
		}
	}
}

func TestCOOCodec(t *testing.T) {
	s := tensor.NewCOO(50)
	s.Append(3, 1.5)
	s.Append(10, -2)
	got, err := decodeCOO(encodeCOO(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 50 || got.Len() != 2 || got.Keys[1] != 10 || got.Values[0] != 1.5 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeCOO([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := decodeCOO([]byte{0, 0, 0, 0, 255, 0, 0, 0}); err == nil {
		t.Fatal("truncated entries accepted")
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
	if errSize("x", 1, 2).Error() == "" {
		t.Fatal("empty size error")
	}
}
