package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/tensor"
)

// steadyStateAllocBudget pins the per-collective allocation count on a
// warmed worker connection (2nd and later collectives, opState recycled
// from the free list), measured across the whole process — worker AND
// aggregator side. The protocol machines are pooled and their round state
// is generation-recycled (slots, accumulator arenas, emit shells), so
// steady-state rounds allocate nothing; what remains per collective is
// the operation envelope — the worker goroutine, the tensor view, the
// occasional pool Get. (The aggregator's result archive allocates its
// first ArchiveDepth entries per slot and refills them in place from then
// on; internal/protocol's TestTensorCompletionZeroAllocs pins that.)
// Measured ~57 for this workload (64 blocks x 32); the budget leaves
// headroom for runtime jitter while still catching any reintroduced
// per-op churn (the op queue alone would add a 1024-slot channel per
// collective, and per-round slot churn would add hundreds).
const steadyStateAllocBudget = 120

// TestSteadyStateAllocsPerOp measures whole-process allocations per
// steady-state collective (worker and aggregator side together) and pins
// them, so a regression that reintroduces per-op churn on the reused
// datapath fails loudly rather than surfacing as a benchmark drift.
func TestSteadyStateAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race runtime")
	}
	cfg := Config{
		Workers:            1,
		Aggregators:        []int{1},
		Reliable:           true,
		BlockSize:          32,
		DeterministicOrder: true,
	}
	c := startCluster(t, cfg, 0, 1)
	w := c.workers[0]
	data := make([]float32, 32*64)
	for i := range data {
		data[i] = float32(i%7) - 3
	}
	// Warm-up: grow the decode/encode arenas and park an opState on the
	// free list. Everything after this reuses that state.
	for i := 0; i < 5; i++ {
		if err := w.AllReduce(data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := w.AllReduce(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state allocs per collective: %.1f", allocs)
	if allocs > steadyStateAllocBudget {
		t.Errorf("steady-state collective allocates %.1f objects, budget %d", allocs, steadyStateAllocBudget)
	}

	created, reused := w.OpStateStats()
	if created != 1 {
		t.Errorf("opStates created = %d, want 1 (sequential collectives must reuse one state)", created)
	}
	if reused < 50 {
		t.Errorf("opStates reused = %d, want >= 50", reused)
	}
}

// TestOpStateReuseAcrossOverlap verifies the free list under overlapping
// collectives: the states created is bounded by the maximum number of
// operations ever in flight at once, not by the operation count.
func TestOpStateReuseAcrossOverlap(t *testing.T) {
	cfg := Config{
		Workers:           2,
		Aggregators:       []int{2},
		Reliable:          false,
		BlockSize:         32,
		OpQueueLen:        64,
		RetransmitTimeout: time.Second,
	}
	c := startCluster(t, cfg, 0, 1)
	const rounds, inflight = 8, 3
	for r := 0; r < rounds; r++ {
		inputs := make([][][]float32, inflight)
		wants := make([][]float32, inflight)
		pendings := make([][]*Pending, inflight)
		for b := 0; b < inflight; b++ {
			inputs[b] = randomInputs(256, cfg.Workers, 0.5, int64(r*10+b))
			wants[b] = expectedSum(inputs[b])
			pendings[b] = make([]*Pending, cfg.Workers)
			for i, w := range c.workers {
				p, err := w.AllReduceAsync(inputs[b][i])
				if err != nil {
					t.Fatal(err)
				}
				pendings[b][i] = p
			}
		}
		for b := range pendings {
			want := wants[b]
			for i, p := range pendings[b] {
				if err := p.Wait(); err != nil {
					t.Fatalf("round %d bucket %d worker %d: %v", r, b, i, err)
				}
			}
			checkResult(t, inputs[b], want)
		}
	}
	for i, w := range c.workers {
		created, reused := w.OpStateStats()
		if created > inflight {
			t.Errorf("worker %d created %d opStates for %d concurrent ops", i, created, inflight)
		}
		if created+reused != rounds*inflight {
			t.Errorf("worker %d: created+reused = %d, want %d ops", i, created+reused, rounds*inflight)
		}
	}
}

// TestSparseAllocsPerOp pins what a warm key-value collective allocates,
// measured across the whole process: the worker assembles into its pooled
// machine's run and the aggregator merges into a free-listed slot, so an
// AllReduceSparse allocates the caller's exact-size copy of the result
// and an operation envelope of at most 4 KiB. The copy is charged at what
// the allocator takes for it — 8 bytes a pair, rounded up to whole 8 KiB
// pages at this size — and the envelope's object count does not depend on
// the pairs moved. As in testing.AllocsPerRun the process runs on one P,
// so a sync.Pool Get never misses an object parked in another P's
// private slot, and the collector is off, so pooled state stays pooled.
func TestSparseAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race runtime")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dim = 1 << 20
	// run does ops warm collectives on both workers of a fresh cluster,
	// each worker holding about density × dim pairs, and reports the
	// whole-process bytes and objects per AllReduceSparse and one result.
	run := func(density float64, ops int) (bytes, objects float64, out *tensor.COO) {
		c := startCluster(t, Config{Workers: 2, Reliable: true}, 0, 1)
		rng := rand.New(rand.NewSource(int64(density * 1e4)))
		gap := int(2 / density)
		var ins [2]*tensor.COO
		for w := range ins {
			ins[w] = tensor.NewCOO(dim)
			for k := rng.Intn(gap); k < dim; k += 1 + rng.Intn(gap) {
				ins[w].Append(int32(k), float32(rng.NormFloat64()))
			}
		}
		var outs [2]*tensor.COO
		var errs [2]error
		var wg sync.WaitGroup
		op := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[1], errs[1] = c.workers[1].AllReduceSparse(ins[1])
			}()
			outs[0], errs[0] = c.workers[0].AllReduceSparse(ins[0])
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i := 0; i < 3; i++ {
			op()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		n := float64(ops * len(ins))
		return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n, outs[0]
	}

	bytes, _, out := run(0.01, 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp := out.Clone()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cp)
	copyBytes := after.TotalAlloc - before.TotalAlloc
	budget := float64(copyBytes + 4096)
	t.Logf("1%% density: %.0f bytes per AllReduceSparse; the %d-pair result is %d bytes, its copy %d", bytes, out.Len(), 8*out.Len(), copyBytes)
	if bytes > budget {
		t.Errorf("a warm AllReduceSparse allocates %.0f bytes, budget one %d-byte copy of the result + 4 KiB = %.0f", bytes, copyBytes, budget)
	}
	_, few, _ := run(0.02, 50)
	_, many, _ := run(0.10, 50)
	t.Logf("objects per AllReduceSparse: %.2f at 2%% density, %.2f at 10%%", few, many)
	if d := many - few; d >= 1 || d <= -1 {
		t.Errorf("a warm AllReduceSparse allocates %.2f objects at 2%% density and %.2f at 10%%: want the same", few, many)
	}
}
