package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// cluster is an in-process OmniReduce deployment for tests.
type cluster struct {
	cfg      Config
	nw       *transport.Network
	workers  []*Worker
	aggs     []*Aggregator
	aggConns []transport.Conn
	aggWG    sync.WaitGroup
	aggErr   chan error
}

// startCluster builds N workers (node IDs 0..N-1) and the configured
// aggregators (node IDs N, N+1, ...) on a channel network. When lossRate
// is positive every endpoint sends through one seeded chaos fabric that
// drops at lossRate and duplicates at lossRate/4.
func startCluster(t testing.TB, cfg Config, lossRate float64, seed int64) *cluster {
	t.Helper()
	if lossRate <= 0 {
		return startClusterOn(t, cfg, func(_ int, conn transport.Conn) transport.Conn { return conn })
	}
	fabric := transport.NewChaosFabric(transport.Scenario{
		Seed:   seed,
		Phases: []transport.Phase{{Drop: lossRate, Dup: lossRate / 4}},
	})
	return startClusterOn(t, cfg, func(_ int, conn transport.Conn) transport.Conn { return fabric.Wrap(conn) })
}

// startClusterOn is startCluster with node id's endpoint passed through
// wrap before its driver is built on it. Teardown closes the wrapped
// conns, so a wrapper releases whatever it still holds.
func startClusterOn(t testing.TB, cfg Config, wrap func(id int, conn transport.Conn) transport.Conn) *cluster {
	t.Helper()
	cfg = cfg.withDefaults()
	if len(cfg.Aggregators) == 0 {
		cfg.Aggregators = []int{cfg.Workers}
	}
	c := &cluster{cfg: cfg, nw: transport.NewNetwork(cfg.Workers, 4096), aggErr: make(chan error, len(cfg.Aggregators))}
	for _, aggID := range cfg.Aggregators {
		conn := wrap(aggID, c.nw.AddNode(aggID))
		agg, err := NewAggregator(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.aggs = append(c.aggs, agg)
		c.aggConns = append(c.aggConns, conn)
		c.aggWG.Add(1)
		go func(a *Aggregator) {
			defer c.aggWG.Done()
			if err := a.Run(); err != nil {
				c.aggErr <- err
			}
		}(agg)
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := NewWorker(wrap(i, c.nw.Conn(i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	t.Cleanup(func() {
		for _, w := range c.workers {
			w.Close()
		}
		for _, conn := range c.aggConns {
			conn.Close()
		}
		c.aggWG.Wait()
		select {
		case err := <-c.aggErr:
			t.Errorf("aggregator error: %v", err)
		default:
		}
	})
	return c
}

// allReduce runs one collective across all workers and fails the test on
// error or timeout.
func (c *cluster) allReduce(t testing.TB, inputs [][]float32) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(c.workers))
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.AllReduce(inputs[i])
		}(i, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("AllReduce timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// expectedSum computes the reference reduction.
func expectedSum(inputs [][]float32) []float32 {
	out := make([]float32, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			out[i] += v
		}
	}
	return out
}

func randomInputs(n, workers int, sparsity float64, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, workers)
	for w := range out {
		out[w] = make([]float32, n)
		for i := range out[w] {
			if rng.Float64() >= sparsity {
				out[w][i] = float32(rng.NormFloat64())
			}
		}
	}
	return out
}

func checkResult(t testing.TB, inputs [][]float32, want []float32) {
	t.Helper()
	for wid, got := range inputs {
		if len(got) != len(want) {
			t.Fatalf("worker %d: length %d != %d", wid, len(got), len(want))
		}
		for i := range want {
			d := float64(got[i]) - float64(want[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("worker %d element %d: got %v want %v", wid, i, got[i], want[i])
			}
		}
	}
}

func TestAllReduceBasic(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 4, FusionWidth: 2, Streams: 1}
	c := startCluster(t, cfg, 0, 1)
	inputs := [][]float32{
		{1, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 3, 0, 0, 1},
		{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0},
	}
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	checkResult(t, inputs, want)
}

func TestAllReduceConfigurations(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		n        int
		sparsity float64
	}{
		{"2w-dense", Config{Workers: 2, Reliable: true}, 10_000, 0},
		{"2w-sparse90", Config{Workers: 2, Reliable: true}, 10_000, 0.9},
		{"4w-sparse99", Config{Workers: 4, Reliable: true}, 20_000, 0.99},
		{"8w-sparse50", Config{Workers: 8, Reliable: true}, 8_192, 0.5},
		{"3w-bs1", Config{Workers: 3, Reliable: true, BlockSize: 1}, 700, 0.8},
		{"3w-width1", Config{Workers: 3, Reliable: true, FusionWidth: 1}, 5_000, 0.7},
		{"3w-width64", Config{Workers: 3, Reliable: true, FusionWidth: 64, BlockSize: 16}, 9_000, 0.7},
		{"4w-manystreams", Config{Workers: 4, Reliable: true, Streams: 16}, 50_000, 0.9},
		{"2w-multiagg", Config{Workers: 2, Reliable: true, Streams: 8, Aggregators: []int{2, 3, 4}}, 30_000, 0.8},
		{"5w-allzero", Config{Workers: 5, Reliable: true}, 4_096, 1.0},
		{"2w-tinytensor", Config{Workers: 2, Reliable: true, BlockSize: 256}, 7, 0},
		{"2w-oddlen", Config{Workers: 2, Reliable: true, BlockSize: 8}, 1_001, 0.6},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := startCluster(t, tc.cfg, 0, int64(i))
			inputs := randomInputs(tc.n, tc.cfg.Workers, tc.sparsity, int64(i)*31)
			want := expectedSum(inputs)
			c.allReduce(t, inputs)
			checkResult(t, inputs, want)
		})
	}
}

func TestAllReduceSequentialTensors(t *testing.T) {
	cfg := Config{Workers: 3, Reliable: true, Streams: 2}
	c := startCluster(t, cfg, 0, 5)
	for round := 0; round < 5; round++ {
		inputs := randomInputs(5_000, 3, 0.8, int64(round))
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		checkResult(t, inputs, want)
	}
}

func TestAllReduceEmptyInput(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true}
	c := startCluster(t, cfg, 0, 1)
	if err := c.workers[0].AllReduce(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSingleWorker(t *testing.T) {
	cfg := Config{Workers: 1, Reliable: true}
	c := startCluster(t, cfg, 0, 1)
	inputs := randomInputs(3_000, 1, 0.5, 9)
	orig := make([]float32, len(inputs[0]))
	copy(orig, inputs[0])
	c.allReduce(t, inputs)
	checkResult(t, inputs, orig)
}

func TestAllReduceZeroBlocksNotSent(t *testing.T) {
	// With very sparse data, the number of transmitted data blocks must be
	// near the number of non-zero blocks, not the total.
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 64, Streams: 2, FusionWidth: 4}
	c := startCluster(t, cfg, 0, 2)
	inputs := randomInputs(64*1000, 2, 0.99, 3)
	var nonZeroBlocks int64
	for _, in := range inputs {
		bm := tensor.ComputeBitmap(tensor.FromSlice(in), 64)
		nonZeroBlocks += int64(bm.Count())
	}
	c.allReduce(t, inputs)
	var sent int64
	for _, w := range c.workers {
		sent += w.Stats.BlocksSent
	}
	// Bootstrap sends Streams*FusionWidth blocks per worker in addition to
	// the non-zero blocks (minus non-zero first blocks, counted once).
	bootstrap := int64(2 * 2 * 4)
	if sent > nonZeroBlocks+bootstrap {
		t.Fatalf("sent %d data blocks for %d non-zero blocks (bootstrap %d)", sent, nonZeroBlocks, bootstrap)
	}
	if sent < nonZeroBlocks-bootstrap {
		t.Fatalf("sent %d blocks, fewer than non-zero %d", sent, nonZeroBlocks)
	}
}

func TestAllReduceDeterministicOrder(t *testing.T) {
	cfg := Config{Workers: 4, Reliable: true, DeterministicOrder: true}
	c := startCluster(t, cfg, 0, 3)
	inputs := randomInputs(10_000, 4, 0.5, 11)
	// Deterministic mode must produce bit-identical results across runs.
	in1 := make([][]float32, 4)
	in2 := make([][]float32, 4)
	for i := range inputs {
		in1[i] = append([]float32(nil), inputs[i]...)
		in2[i] = append([]float32(nil), inputs[i]...)
	}
	c.allReduce(t, in1)
	c.allReduce(t, in2)
	for w := range in1 {
		for i := range in1[w] {
			if in1[w][i] != in2[w][i] {
				t.Fatalf("non-deterministic result at worker %d elem %d", w, i)
			}
		}
	}
	// And workers must agree exactly with the wid-ordered reference.
	want := make([]float32, len(inputs[0]))
	for wid := 0; wid < 4; wid++ {
		for i, v := range inputs[wid] {
			want[i] += v
		}
	}
	for w := range in1 {
		for i := range want {
			if in1[w][i] != want[i] {
				t.Fatalf("worker %d differs from ordered reference at %d", w, i)
			}
		}
	}
}

func TestAllReduceQuantizedSwitchMode(t *testing.T) {
	// Switch mode (Fig 18): fixed-point aggregation. Results match within
	// quantization error 1/scale per worker.
	cfg := Config{Workers: 4, Reliable: true, QuantizeScale: 1 << 16}
	c := startCluster(t, cfg, 0, 4)
	inputs := randomInputs(5_000, 4, 0.7, 13)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	for wid, got := range inputs {
		for i := range want {
			d := float64(got[i]) - float64(want[i])
			if d > 4.0/65536 || d < -4.0/65536 {
				t.Fatalf("worker %d elem %d: quantized %v vs %v", wid, i, got[i], want[i])
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	cfg := Config{Workers: 3, Reliable: true}
	c := startCluster(t, cfg, 0, 6)
	n := 4_000
	rng := rand.New(rand.NewSource(21))
	rootData := make([]float32, n)
	for i := range rootData {
		rootData[i] = float32(rng.NormFloat64())
	}
	inputs := make([][]float32, 3)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		if w == 1 {
			copy(inputs[w], rootData)
		} else {
			// Garbage that Broadcast must overwrite.
			for i := range inputs[w] {
				inputs[w][i] = -999
			}
		}
	}
	var wg sync.WaitGroup
	for w := range c.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := c.workers[w].Broadcast(inputs[w], 1); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	checkResult(t, inputs, rootData)
}

func TestAllGather(t *testing.T) {
	cfg := Config{Workers: 4, Reliable: true}
	c := startCluster(t, cfg, 0, 7)
	seg := 1_000
	segments := randomInputs(seg, 4, 0, 23)
	outs := make([][]float32, 4)
	var wg sync.WaitGroup
	for w := range c.workers {
		outs[w] = make([]float32, seg*4)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := c.workers[w].AllGather(segments[w], outs[w]); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	var want []float32
	for w := 0; w < 4; w++ {
		want = append(want, segments[w]...)
	}
	checkResult(t, outs, want)
}

func TestAllGatherBadLength(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true}
	c := startCluster(t, cfg, 0, 8)
	if err := c.workers[0].AllGather(make([]float32, 10), make([]float32, 5)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestWorkerProfileWorkloads(t *testing.T) {
	// Run AllReduce over gradients with realistic DNN sparsity structure.
	for _, name := range []string{"DeepLight", "VGG19"} {
		t.Run(name, func(t *testing.T) {
			p := sparsity.ByName(name)
			cfg := Config{Workers: 4, Reliable: true, Streams: 4}
			c := startCluster(t, cfg, 0, 9)
			rng := rand.New(rand.NewSource(33))
			inputs := make([][]float32, 4)
			for w := range inputs {
				inputs[w] = p.SynthesizeGradient(20_000, rng).Data
			}
			// Equalize lengths (scale rounding can differ by a few elems).
			min := len(inputs[0])
			for _, in := range inputs {
				if len(in) < min {
					min = len(in)
				}
			}
			for w := range inputs {
				inputs[w] = inputs[w][:min]
			}
			want := expectedSum(inputs)
			c.allReduce(t, inputs)
			checkResult(t, inputs, want)
		})
	}
}

// Property test: AllReduce equals the element-wise sum for arbitrary
// worker counts, block sizes, fusion widths, stream counts, and sparsity.
func TestAllReduceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Workers:     1 + r.Intn(6),
			BlockSize:   1 + r.Intn(100),
			FusionWidth: 1 + r.Intn(16),
			Streams:     1 + r.Intn(8),
			Reliable:    true,
		}
		if r.Float64() < 0.3 {
			cfg.Aggregators = []int{cfg.Workers, cfg.Workers + 1}
		}
		n := 1 + r.Intn(5_000)
		inputs := randomInputs(n, cfg.Workers, r.Float64(), seed*17)
		want := expectedSum(inputs)
		c := startCluster(t, cfg, 0, seed)
		c.allReduce(t, inputs)
		for _, got := range inputs {
			for i := range want {
				d := float64(got[i]) - float64(want[i])
				if d > 1e-4 || d < -1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: 0, Aggregators: []int{1}},
		{Workers: 2},
		{Workers: 2, Aggregators: []int{2}, FusionWidth: 65},
		{Workers: 2, Aggregators: []int{2}, QuantizeScale: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Config{Workers: 2, Aggregators: []int{2}}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if good.BlockSize != 256 || good.FusionWidth != 32 || good.Streams != 4 {
		t.Errorf("defaults wrong: %+v", good)
	}
}

func TestNewWorkerBadID(t *testing.T) {
	nw := transport.NewNetwork(5, 4)
	cfg := Config{Workers: 2, Aggregators: []int{4}, Reliable: true}
	if _, err := NewWorker(nw.Conn(3), cfg); err == nil {
		t.Fatal("expected out-of-range worker ID error")
	}
}

func BenchmarkAllReduceInProcess(b *testing.B) {
	for _, s := range []float64{0, 0.9, 0.99} {
		b.Run(fmt.Sprintf("sparsity=%v", s), func(b *testing.B) {
			cfg := Config{Workers: 4, Reliable: true, Streams: 4}
			c := startCluster(b, cfg, 0, 1)
			inputs := randomInputs(1<<20, 4, s, 7)
			b.SetBytes(int64(4 * (1 << 20)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.allReduce(b, inputs)
			}
		})
	}
}

func TestAllGatherTransmitsOnlyOwnSegment(t *testing.T) {
	// §7: AllGather is sparse AllReduce with no block overlap, so each
	// worker transmits only (about) its own segment's blocks.
	cfg := Config{Workers: 4, Reliable: true, BlockSize: 64, Streams: 2, FusionWidth: 4}
	c := startCluster(t, cfg, 0, 51)
	seg := 64 * 40 // 40 blocks per worker
	segments := randomInputs(seg, 4, 0, 53)
	outs := make([][]float32, 4)
	var wg sync.WaitGroup
	for w := range c.workers {
		outs[w] = make([]float32, seg*4)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := c.workers[w].AllGather(segments[w], outs[w]); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	for w, wk := range c.workers {
		// Own segment is 40 blocks; bootstrap adds at most
		// Streams*FusionWidth extra.
		limit := int64(40 + 2*4)
		if wk.Stats.BlocksSent > limit {
			t.Errorf("worker %d sent %d blocks, want <= %d", w, wk.Stats.BlocksSent, limit)
		}
	}
}

func TestAllReduceHalfPrecision(t *testing.T) {
	cfg := Config{Workers: 4, Reliable: true, HalfPrecision: true}
	c := startCluster(t, cfg, 0, 61)
	inputs := randomInputs(10_000, 4, 0.7, 63)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	// fp16 wire precision: relative error ~2^-11 per hop (worker->agg and
	// agg->worker), values are unit normals summed over 4 workers.
	for wid, got := range inputs {
		for i := range want {
			d := float64(got[i]) - float64(want[i])
			tol := 0.01 * (1 + float64(abs32(want[i])))
			if d > tol || d < -tol {
				t.Fatalf("worker %d elem %d: %v vs %v", wid, i, got[i], want[i])
			}
		}
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestHalfPrecisionHalvesBytes(t *testing.T) {
	run := func(half bool) int64 {
		cfg := Config{Workers: 2, Reliable: true, HalfPrecision: half, BlockSize: 256}
		c := startCluster(t, cfg, 0, 67)
		inputs := randomInputs(1<<18, 2, 0, 69) // dense
		c.allReduce(t, inputs)
		var bytes int64
		for _, w := range c.workers {
			bytes += w.Stats.Snapshot().BytesSent
		}
		return bytes
	}
	full := run(false)
	half := run(true)
	ratio := float64(half) / float64(full)
	if ratio > 0.6 || ratio < 0.4 {
		t.Fatalf("fp16 bytes ratio = %v (full %d, half %d), want ~0.5", ratio, full, half)
	}
}
