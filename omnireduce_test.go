package omnireduce

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func runAll(t *testing.T, n int, fn func(w int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

func TestLocalClusterAllReduce(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	rng := rand.New(rand.NewSource(1))
	n := 10_000
	inputs := make([][]float32, 3)
	want := make([]float32, n)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			if rng.Float64() < 0.2 {
				inputs[w][i] = float32(rng.NormFloat64())
				want[i] += inputs[w][i]
			}
		}
	}
	runAll(t, 3, func(w int) error { return c.Worker(w).AllReduce(inputs[w]) })
	for w := range inputs {
		for i := range want {
			d := float64(inputs[w][i]) - float64(want[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("worker %d elem %d: %v vs %v", w, i, inputs[w][i], want[i])
			}
		}
	}
	if c.Worker(0).Stats().PacketsSent == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestLocalClusterMultiTenantJobs(t *testing.T) {
	c, err := NewLocalCluster(Options{
		Workers: 2,
		Tenants: map[string]TenantQuota{"prod": {Weight: 3, MaxJobs: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two jobs from different tenants multiplex over the same workers and
	// aggregator; each sums only its own members' data.
	names := [][2]string{{"prod", "ranker"}, {"research", "ablation"}}
	jobs := make([][]*Job, len(names))
	for ji, nm := range names {
		jobs[ji] = make([]*Job, 2)
		for w := 0; w < 2; w++ {
			j, err := c.Worker(w).OpenJob(nm[0], nm[1])
			if err != nil {
				t.Fatalf("OpenJob %v worker %d: %v", nm, w, err)
			}
			defer j.Close()
			if j.Tenant() != nm[0] || j.Name() != nm[1] || j.Namespace() == 0 {
				t.Fatalf("job identity: tenant=%q name=%q ns=%d", j.Tenant(), j.Name(), j.Namespace())
			}
			jobs[ji][w] = j
		}
	}
	rng := rand.New(rand.NewSource(8))
	const n = 4096
	inputs := make([][][]float32, len(names))
	wants := make([][]float32, len(names))
	for ji := range names {
		inputs[ji] = make([][]float32, 2)
		wants[ji] = make([]float32, n)
		for w := 0; w < 2; w++ {
			inputs[ji][w] = make([]float32, n)
			for i := range inputs[ji][w] {
				inputs[ji][w][i] = float32(rng.NormFloat64())
				wants[ji][i] += inputs[ji][w][i]
			}
		}
	}
	runAll(t, 2, func(w int) error {
		for ji := range jobs {
			if err := jobs[ji][w].AllReduce(inputs[ji][w]); err != nil {
				return err
			}
		}
		return nil
	})
	for ji := range names {
		for w := 0; w < 2; w++ {
			for i := range wants[ji] {
				d := float64(inputs[ji][w][i]) - float64(wants[ji][i])
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("job %v worker %d elem %d: %v vs %v", names[ji], w, i, inputs[ji][w][i], wants[ji][i])
				}
			}
		}
	}

	// prod's MaxJobs=2: ranker is its first job, embedder fits as the
	// second, and a third is refused with the typed quota error.
	extra := make([]*Job, 2)
	for w := 0; w < 2; w++ {
		j, err := c.Worker(w).OpenJob("prod", "embedder")
		if err != nil {
			t.Fatalf("OpenJob within quota: %v", err)
		}
		defer j.Close()
		extra[w] = j
	}
	if _, err := c.Worker(0).OpenJob("prod", "overflow"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("OpenJob beyond MaxJobs: got %v, want ErrTenantQuota", err)
	}
}

func TestLocalClusterSparse(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := &SparseTensor{Dim: 100, Keys: []int32{2, 50}, Values: []float32{1, 2}}
	b := &SparseTensor{Dim: 100, Keys: []int32{50, 99}, Values: []float32{10, 4}}
	ins := []*SparseTensor{a, b}
	outs := make([]*SparseTensor, 2)
	runAll(t, 2, func(w int) error {
		var err error
		outs[w], err = c.Worker(w).AllReduceSparse(ins[w])
		return err
	})
	for w, out := range outs {
		d := out.Dense()
		if d[2] != 1 || d[50] != 12 || d[99] != 4 {
			t.Fatalf("worker %d: %v", w, d)
		}
	}
}

// TestLocalClusterSparseRefusesMalformedInput: a SparseTensor whose keys
// are not strictly ascending in [0, Dim) fails with ErrKeyOrder, and the
// worker sends nothing.
func TestLocalClusterSparseRefusesMalformedInput(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, in := range []*SparseTensor{
		{Dim: 100, Keys: []int32{2, 2}, Values: []float32{1, 2}},
		{Dim: 100, Keys: []int32{50, 2}, Values: []float32{1, 2}},
		{Dim: 100, Keys: []int32{-1, 2}, Values: []float32{1, 2}},
		{Dim: 100, Keys: []int32{2, 100}, Values: []float32{1, 2}},
	} {
		if _, err := c.Worker(0).AllReduceSparse(in); !errors.Is(err, ErrKeyOrder) {
			t.Fatalf("keys %v at Dim %d: err = %v, want ErrKeyOrder", in.Keys, in.Dim, err)
		}
	}
	if n := c.Worker(0).Stats().PacketsSent; n != 0 {
		t.Fatalf("refused collectives sent %d packets", n)
	}
}

func TestLocalClusterBroadcastAllGather(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := [][]float32{{1, 2, 3}, {9, 9, 9}}
	runAll(t, 2, func(w int) error { return c.Worker(w).Broadcast(data[w], 0) })
	if data[1][0] != 1 || data[1][2] != 3 {
		t.Fatalf("broadcast: %v", data[1])
	}
	segs := [][]float32{{1, 2}, {3, 4}}
	outs := [][]float32{make([]float32, 4), make([]float32, 4)}
	runAll(t, 2, func(w int) error { return c.Worker(w).AllGather(segs[w], outs[w]) })
	for w := range outs {
		if outs[w][0] != 1 || outs[w][3] != 4 {
			t.Fatalf("allgather worker %d: %v", w, outs[w])
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	s := FromDense([]float32{0, 1, 0, -2})
	if s.Dim != 4 || len(s.Keys) != 2 || s.Keys[0] != 1 || s.Values[1] != -2 {
		t.Fatalf("FromDense: %+v", s)
	}
	d := s.Dense()
	if d[1] != 1 || d[3] != -2 || d[0] != 0 {
		t.Fatalf("Dense: %v", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewLocalCluster(Options{}); err == nil {
		t.Fatal("expected error for zero workers")
	}
}

func TestSwitchModeCluster(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2, SwitchMode: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := [][]float32{{0.5, 1.25}, {0.25, -0.25}}
	runAll(t, 2, func(w int) error { return c.Worker(w).AllReduce(data[w]) })
	for w := range data {
		if d := float64(data[w][0]) - 0.75; d > 1e-4 || d < -1e-4 {
			t.Fatalf("worker %d: %v", w, data[w])
		}
	}
}

func TestDeterministicCluster(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 3, DeterministicOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func() []float32 {
		rng := rand.New(rand.NewSource(5))
		inputs := make([][]float32, 3)
		for w := range inputs {
			inputs[w] = make([]float32, 1000)
			for i := range inputs[w] {
				inputs[w][i] = float32(rng.NormFloat64()) * 1e-3
			}
		}
		runAll(t, 3, func(w int) error { return c.Worker(w).AllReduce(inputs[w]) })
		return inputs[0]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deterministic mode not bit-stable")
		}
	}
}

func TestHalfPrecisionCluster(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2, HalfPrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := [][]float32{{0.5, 1.5, -2}, {0.25, 0.5, 1}}
	runAll(t, 2, func(w int) error { return c.Worker(w).AllReduce(data[w]) })
	want := []float32{0.75, 2, -1}
	for w := range data {
		for i := range want {
			d := float64(data[w][i]) - float64(want[i])
			if d > 1e-2 || d < -1e-2 {
				t.Fatalf("worker %d: %v vs %v", w, data[w], want)
			}
		}
	}
	// Wire volume must reflect the 2-byte elements.
	st := c.Worker(0).Stats()
	if st.BytesSent == 0 {
		t.Fatal("no bytes recorded")
	}
}
