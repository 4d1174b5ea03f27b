package omnireduce

// Property-based equivalence tests: on the same inputs, OmniReduce's
// sparse AllReduce must agree with the plain dense float32 sum and with
// the two live comparison collectives the benchmarks time (§6.1) — ring
// AllReduce and AGsparse — across randomized sparsity, block sizes, and
// worker counts, and across the channel, TCP, and lossy-UDP transports.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/collective"
	"omnireduce/internal/core"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// randWorkload builds per-worker inputs at the given density and their
// dense float32 reference sum (accumulated in input order).
func randWorkload(n, workers int, density float64, seed int64) (inputs [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	inputs = make([][]float32, workers)
	want = make([]float32, n)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			if rng.Float64() < density {
				v := float32(rng.NormFloat64())
				inputs[w][i] = v
				want[i] += v
			}
		}
	}
	return inputs, want
}

func maxAbsDiff(got, want []float32) float64 {
	var m float64
	for i := range want {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// runConcurrent runs fn on n goroutines and returns the first error.
func runConcurrent(n int, fn func(r int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// omniSum runs OmniReduce over an in-process cluster and returns each
// worker's result.
func omniSum(o Options, inputs [][]float32) ([][]float32, error) {
	c, err := NewLocalCluster(o)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([][]float32, len(inputs))
	for w := range inputs {
		out[w] = append([]float32(nil), inputs[w]...)
	}
	if err := runConcurrent(len(inputs), func(w int) error {
		return c.Worker(w).AllReduce(out[w])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// comms builds a fresh channel fabric with one Comm per rank.
func comms(n int) ([]*collective.Comm, error) {
	nw := transport.NewNetwork(n, 4096)
	cs := make([]*collective.Comm, n)
	for r := 0; r < n; r++ {
		c, err := collective.NewComm(nw.Conn(r), n)
		if err != nil {
			return nil, err
		}
		cs[r] = c
	}
	return cs, nil
}

func ringSum(inputs [][]float32) ([][]float32, error) {
	n := len(inputs)
	cs, err := comms(n)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()
	out := make([][]float32, n)
	for r := range inputs {
		out[r] = append([]float32(nil), inputs[r]...)
	}
	if err := runConcurrent(n, func(r int) error {
		return cs[r].RingAllReduce(out[r])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func agsparseSum(inputs [][]float32) ([][]float32, error) {
	n := len(inputs)
	cs, err := comms(n)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()
	out := make([][]float32, n)
	if err := runConcurrent(n, func(r int) error {
		coo := tensor.FromDense(tensor.FromSlice(inputs[r]))
		res, err := cs[r].AGsparseAllReduce(coo)
		if err != nil {
			return err
		}
		out[r] = res.ToDense().Data
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// TestEquivalenceProperty is the property sweep: random trials over worker
// count, tensor length, block size, fusion width, stream count, and
// sparsity; every algorithm must land on the dense sum.
func TestEquivalenceProperty(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	const tol = 1e-3
	rng := rand.New(rand.NewSource(20210817))
	blockSizes := []int{16, 32, 64, 128, 256}
	densities := []float64{0.01, 0.1, 0.5, 1.0}
	for trial := 0; trial < trials; trial++ {
		workers := 2 + rng.Intn(3)
		n := 1_000 + rng.Intn(30_000)
		o := Options{
			Workers:     workers,
			BlockSize:   blockSizes[rng.Intn(len(blockSizes))],
			FusionWidth: 1 << rng.Intn(4),
			Streams:     1 + rng.Intn(4),
			Aggregators: 1 + rng.Intn(2),
		}
		density := densities[rng.Intn(len(densities))]
		seed := rng.Int63()
		name := fmt.Sprintf("w%d_n%d_bs%d_f%d_s%d_d%g",
			workers, n, o.BlockSize, o.FusionWidth, o.Streams, density)
		t.Run(name, func(t *testing.T) {
			inputs, want := randWorkload(n, workers, density, seed)

			algos := []struct {
				name string
				run  func() ([][]float32, error)
			}{
				{"omnireduce", func() ([][]float32, error) { return omniSum(o, inputs) }},
				{"ring", func() ([][]float32, error) { return ringSum(inputs) }},
				{"agsparse", func() ([][]float32, error) { return agsparseSum(inputs) }},
			}
			for _, a := range algos {
				out, err := a.run()
				if err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				for r := range out {
					if d := maxAbsDiff(out[r], want); d > tol {
						t.Fatalf("%s rank %d drifted %g from dense sum", a.name, r, d)
					}
				}
			}
		})
	}
}

// TestEquivalenceAcrossTransports runs the same workload through the
// channel fabric, real TCP sockets, and lossy UDP (chaos drop + dup), and
// demands the same result from all three.
func TestEquivalenceAcrossTransports(t *testing.T) {
	const workers, n = 2, 8_000
	o := Options{Workers: workers, Streams: 2, BlockSize: 64}
	inputs, want := randWorkload(n, workers, 0.2, 51)
	const tol = 1e-3

	check := func(name string, out [][]float32) {
		t.Helper()
		for r := range out {
			if d := maxAbsDiff(out[r], want); d > tol {
				t.Fatalf("%s rank %d drifted %g from dense sum", name, r, d)
			}
		}
	}

	// Channel fabric.
	out, err := omniSum(o, inputs)
	if err != nil {
		t.Fatal(err)
	}
	check("channel", out)

	// TCP loopback through the public cross-process API.
	t.Run("tcp", func(t *testing.T) {
		agg, err := NewTCPAggregator(workers, map[int]string{workers: "127.0.0.1:0"}, o)
		if err != nil {
			t.Fatalf("aggregator: %v", err)
		}
		addrs := map[int]string{workers: agg.Addr()}
		go agg.Run()
		defer agg.Close()
		ws := make([]*Worker, workers)
		for i := range ws {
			w, err := NewTCPWorker(i, addrs, o)
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
			defer w.Close()
			ws[i] = w
		}
		out := make([][]float32, workers)
		for r := range inputs {
			out[r] = append([]float32(nil), inputs[r]...)
		}
		if err := runConcurrent(workers, func(r int) error {
			return ws[r].AllReduce(out[r])
		}); err != nil {
			t.Fatal(err)
		}
		check("tcp", out)
	})

	// Lossy UDP: real sockets with the chaos fabric dropping and
	// duplicating on top, so Algorithm 2's recovery is on the path.
	t.Run("udp-lossy", func(t *testing.T) {
		cfg := core.Config{
			Workers:           workers,
			Aggregators:       []int{workers},
			Streams:           2,
			BlockSize:         64,
			Reliable:          false,
			RetransmitTimeout: 20 * time.Millisecond,
		}
		fabric := transport.NewChaosFabric(transport.Scenario{
			Seed:   61,
			Phases: []transport.Phase{{Drop: 0.03, Dup: 0.02}},
		})
		aggUDP, err := transport.NewUDP(workers, map[int]string{workers: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("udp aggregator: %v", err)
		}
		// The wrapped conn is the one to close: the fabric releases what it
		// holds for an endpoint's links only through its own Close.
		aggConn := fabric.Wrap(aggUDP)
		agg, err := core.NewAggregator(aggConn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go agg.Run()
		defer aggConn.Close()
		cws := make([]*core.Worker, workers)
		for i := range cws {
			c, err := transport.NewUDP(i, map[int]string{
				i:       "127.0.0.1:0",
				workers: aggUDP.Addr(),
			})
			if err != nil {
				t.Fatalf("udp worker %d: %v", i, err)
			}
			if err := aggUDP.RegisterPeer(i, c.Addr()); err != nil {
				t.Fatalf("register worker %d: %v", i, err)
			}
			w, err := core.NewWorker(fabric.Wrap(c), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			cws[i] = w
		}
		out := make([][]float32, workers)
		for r := range inputs {
			out[r] = append([]float32(nil), inputs[r]...)
		}
		done := make(chan error, 1)
		go func() {
			done <- runConcurrent(workers, func(r int) error {
				return cws[r].AllReduce(out[r])
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("lossy UDP job timed out")
		}
		if fabric.Counts().Total() == 0 {
			t.Fatal("chaos fabric injected nothing over UDP")
		}
		check("udp-lossy", out)
	})
}
