package simproto

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"omnireduce/internal/netsim"
	"omnireduce/internal/protocol"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// tb is a clean 8-worker cluster with no CPU or copy modeling, for
// comparing against the closed-form §3.4 expressions.
func cleanCluster(workers int, bwGbps float64) Cluster {
	return Cluster{
		Workers: workers, Aggregators: workers,
		WorkerBW: netsim.Gbps(bwGbps), AggBW: netsim.Gbps(bwGbps),
		Latency: 5e-6,
	}
}

func TestRingMatchesFormula(t *testing.T) {
	for _, N := range []int{2, 4, 8} {
		c := cleanCluster(N, 10)
		S := 100e6
		got := SimRingAllReduce(c, S)
		want := 2 * float64(N-1) * (c.Latency + S*8/(float64(N)*c.WorkerBW))
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("N=%d: ring sim %v vs formula %v", N, got, want)
		}
	}
}

func TestRingSingleWorker(t *testing.T) {
	if got := SimRingAllReduce(cleanCluster(1, 10), 1e6); got != 0 {
		t.Fatalf("single worker ring = %v", got)
	}
}

func TestAGsparseMatchesFormula(t *testing.T) {
	for _, N := range []int{2, 4, 8} {
		for _, D := range []float64{0.01, 0.2} {
			c := cleanCluster(N, 10)
			S := 100e6
			got := SimAGsparseAllReduce(c, S, D, 0)
			want := float64(N-1) * (c.Latency + 2*D*S*8/c.WorkerBW)
			if math.Abs(got-want)/want > 0.02 {
				t.Errorf("N=%d D=%v: AGsparse sim %v vs formula %v", N, D, got, want)
			}
		}
	}
}

func TestOmniDenseMatchesFormula(t *testing.T) {
	// Dense data, dedicated aggregators with aggregate bandwidth N*B:
	// §3.4 gives T ≈ α + S/B (plus metadata overhead).
	N := 8
	c := cleanCluster(N, 10)
	S := 100e6
	rng := rand.New(rand.NewSource(1))
	spec := UniformSpec(int(S/1024), N, 1024, 1.0, sparsity.OverlapRandom, rng)
	got := SimOmniReduce(c, spec, PaperConfig(), OmniOpts{})
	want := c.Latency + S*8/c.WorkerBW
	if got < want || got > want*1.25 {
		t.Errorf("omni dense: sim %v vs model %v", got, want)
	}
}

func TestOmniSparsitySpeedsUp(t *testing.T) {
	N := 8
	c := cleanCluster(N, 10)
	S := 50e6
	rng := rand.New(rand.NewSource(2))
	var prev float64 = math.Inf(1)
	for _, s := range []float64{0, 0.6, 0.9, 0.99} {
		spec := UniformSpec(int(S/1024), N, 1024, 1-s, sparsity.OverlapAll, rng)
		got := SimOmniReduce(c, spec, PaperConfig(), OmniOpts{})
		if got >= prev {
			t.Errorf("sparsity %v did not speed up: %v >= %v", s, got, prev)
		}
		prev = got
	}
}

func TestOmniOverlapEffect(t *testing.T) {
	// §6.4.2: at mid sparsity, all-overlap is significantly faster than
	// no overlap (union volume is N times smaller).
	N := 8
	c := cleanCluster(N, 10)
	blocks := 40_000
	rng := rand.New(rand.NewSource(3))
	all := SimOmniReduce(c, UniformSpec(blocks, N, 1024, 0.1, sparsity.OverlapAll, rng), PaperConfig(), OmniOpts{})
	none := SimOmniReduce(c, UniformSpec(blocks, N, 1024, 0.1, sparsity.OverlapNone, rng), PaperConfig(), OmniOpts{})
	if all >= none {
		t.Errorf("all-overlap %v not faster than none-overlap %v", all, none)
	}
}

func TestOmniBeatsRingWhenSparse(t *testing.T) {
	N := 8
	c := Testbed10G(N, N)
	S := 100e6
	rng := rand.New(rand.NewSource(4))
	ring := SimRingAllReduce(c, S)
	spec := UniformSpec(int(S/1024), N, 1024, 0.01, sparsity.OverlapRandom, rng)
	omni := SimOmniReduce(c, spec, PaperConfig(), OmniOpts{})
	if omni >= ring/3 {
		t.Errorf("at 99%% sparsity omni %v should be >3x faster than ring %v", omni, ring)
	}
}

func TestOmniScalesBetterThanRing(t *testing.T) {
	// Dense input: ring time grows with N, omni stays ~constant (Fig 4).
	S := 50e6
	rng := rand.New(rand.NewSource(5))
	ring2 := SimRingAllReduce(cleanCluster(2, 10), S)
	ring8 := SimRingAllReduce(cleanCluster(8, 10), S)
	if ring8 <= ring2 {
		t.Errorf("ring should slow down with workers: %v vs %v", ring8, ring2)
	}
	spec2 := UniformSpec(int(S/1024), 2, 1024, 1, sparsity.OverlapRandom, rng)
	spec8 := UniformSpec(int(S/1024), 8, 1024, 1, sparsity.OverlapRandom, rng)
	omni2 := SimOmniReduce(cleanCluster(2, 10), spec2, PaperConfig(), OmniOpts{})
	omni8 := SimOmniReduce(cleanCluster(8, 10), spec8, PaperConfig(), OmniOpts{})
	if math.Abs(omni8-omni2)/omni2 > 0.15 {
		t.Errorf("omni dense time should be ~constant in N: %v vs %v", omni2, omni8)
	}
}

func TestSparCMLDynamicSwitch(t *testing.T) {
	// At high density, DSAR's dense switch beats SSAR's sparse phase 2.
	c := cleanCluster(8, 10)
	S := 100e6
	D := 0.4
	du := iidUnionDensity(D, 8)
	ssar := SimSparCMLSplitAllgather(c, S, D, du, false)
	dsar := SimSparCMLSplitAllgather(c, S, D, du, true)
	if dsar >= ssar {
		t.Errorf("DSAR %v should beat SSAR %v at density %v", dsar, ssar, D)
	}
	// At very low density both keep sparse form and match.
	D = 0.001
	du = iidUnionDensity(D, 8)
	ssar = SimSparCMLSplitAllgather(c, S, D, du, false)
	dsar = SimSparCMLSplitAllgather(c, S, D, du, true)
	if math.Abs(ssar-dsar)/ssar > 0.01 {
		t.Errorf("SSAR %v and DSAR %v should match at low density", ssar, dsar)
	}
}

func TestParallaxOracle(t *testing.T) {
	c := cleanCluster(8, 10)
	S := 100e6
	// Dense data: Parallax must fall back to ring.
	ring := SimRingAllReduce(c, S)
	par := SimParallax(c, S, 1.0, 1.0, 8)
	if par > ring {
		t.Errorf("Parallax %v worse than its ring arm %v", par, ring)
	}
	// Extremely sparse: PS must win.
	ps := SimParameterServer(c, S, 0.001, iidUnionDensity(0.001, 8), 8)
	par = SimParallax(c, S, 0.001, iidUnionDensity(0.001, 8), 8)
	if math.Abs(par-ps) > 1e-9 && par > ring {
		t.Errorf("Parallax did not pick the PS arm: %v vs %v", par, ps)
	}
}

func TestOmniColocated(t *testing.T) {
	// Colocated mode must work and be no faster than dedicated for dense
	// data (it halves effective bandwidth, §3.4).
	N := 4
	S := 20e6
	rng := rand.New(rand.NewSource(6))
	ded := cleanCluster(N, 10)
	col := ded
	col.Colocated = true
	spec := UniformSpec(int(S/1024), N, 1024, 1.0, sparsity.OverlapRandom, rng)
	tDed := SimOmniReduce(ded, spec, PaperConfig(), OmniOpts{})
	tCol := SimOmniReduce(col, spec, PaperConfig(), OmniOpts{})
	if tCol < tDed {
		t.Errorf("colocated %v faster than dedicated %v on dense data", tCol, tDed)
	}
}

// TestEntryPointsShareOneConfig: the spec-driven and the tensor-backed
// entry points complete a config by one rule, so one config over one block
// occupancy is one run, the paper's config and a zero packet shape alike;
// a zero shape is protocol.Defaults' shape.
func TestEntryPointsShareOneConfig(t *testing.T) {
	const W, blocks, bs = 3, 200, 256
	spec := UniformSpec(blocks, W, 4*bs, 0.3, sparsity.OverlapRandom, rand.New(rand.NewSource(12)))
	inputs := make([][]float32, W)
	for w := range inputs {
		inputs[w] = make([]float32, blocks*bs)
		for b := 0; b < blocks; b++ {
			if spec.PerWorker[w].Get(b) {
				inputs[w][b*bs] = 1
			}
		}
	}
	c := Testbed10G(W, 1)
	defaults := protocol.Defaults()
	defaults.Reliable = true
	for name, cfg := range map[string]protocol.Config{"paper": PaperConfig(), "zero shape": {Reliable: true}, "defaults": defaults} {
		fromSpec, fromTensors := SimOmniReduce(c, spec, cfg, OmniOpts{}), SimOmniReduceTensors(c, inputs, cfg, OmniOpts{}).Time
		if fromSpec != fromTensors {
			t.Errorf("%s: spec-driven run took %g s, tensor-backed %g s", name, fromSpec, fromTensors)
		}
	}
	zero := SimOmniReduce(c, spec, protocol.Config{Reliable: true}, OmniOpts{})
	if d, p := SimOmniReduce(c, spec, defaults, OmniOpts{}), SimOmniReduce(c, spec, PaperConfig(), OmniOpts{}); zero != d || zero == p {
		t.Errorf("zero shape took %g s, protocol.Defaults' %g s, the paper's %g s", zero, d, p)
	}
}

// TestSimOmniReduceSparse runs Algorithm 3 in virtual time on dedicated
// aggregators (two: the op goes to the one its tensor ID names) and
// colocated ones (each worker node's handler tells data for its
// aggregator from results for its worker): every worker ends with the
// key-wise sum of the inputs. Values are small integers, whose sums do
// not depend on the order the aggregator adds in. The mode is
// reliable-only, so a lossy run fails, as does a malformed input.
func TestSimOmniReduceSparse(t *testing.T) {
	const W, dim = 3, 600
	rng := rand.New(rand.NewSource(41))
	inputs := make([]*tensor.COO, W)
	want := tensor.NewCOO(dim)
	for w := range inputs {
		inputs[w] = tensor.NewCOO(dim)
		for k := 0; k < dim; k++ {
			if rng.Float64() < 0.3 {
				inputs[w].Append(int32(k), float32(rng.Intn(9)-4))
			}
		}
		want = want.AddCOO(inputs[w])
	}
	cfg := protocol.Config{BlockSize: 8, FusionWidth: 2, Reliable: true}
	col := Testbed10G(W, W)
	col.Colocated = true
	for name, c := range map[string]Cluster{"dedicated": Testbed10G(W, 2), "colocated": col} {
		run, err := SimOmniReduceSparse(c, inputs, cfg, OmniOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if run.Time <= 0 {
			t.Fatalf("%s: did not complete: time %g", name, run.Time)
		}
		for w, got := range run.SparseResults {
			if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Values, want.Values) {
				t.Fatalf("%s: worker %d result differs from the key-wise sum", name, w)
			}
			if n := run.WorkerStats[w].PacketsSent; n < 4 {
				t.Errorf("%s: worker %d sent %d packets, want several", name, w, n)
			}
		}
	}
	lossy := cfg
	lossy.Reliable = false
	if _, err := SimOmniReduceSparse(Testbed10G(W, 1), inputs, lossy, OmniOpts{}); err == nil {
		t.Error("lossy key-value run accepted")
	}
	bad := &tensor.COO{Dim: dim, Keys: []int32{5, 3}, Values: []float32{1, 1}}
	if _, err := SimOmniReduceSparse(Testbed10G(2, 1), []*tensor.COO{inputs[0], bad}, cfg, OmniOpts{}); !errors.Is(err, tensor.ErrKeyOrder) {
		t.Errorf("malformed input: err %v, want tensor.ErrKeyOrder", err)
	}
}

func TestOmniLossyConvergesAndCosts(t *testing.T) {
	N := 4
	c := cleanCluster(N, 10)
	c.Faults = transport.Scenario{Phases: []transport.Phase{{Drop: 0.01}}}
	rng := rand.New(rand.NewSource(7))
	spec := UniformSpec(5_000, N, 1024, 0.2, sparsity.OverlapRandom, rng)
	cfg := PaperConfig()
	cfg.Reliable, cfg.RetransmitTimeout = false, 500*time.Microsecond
	lossy := SimOmniReduce(c, spec, cfg, OmniOpts{})
	c.Faults = transport.Scenario{}
	clean := SimOmniReduce(c, spec, cfg, OmniOpts{})
	if lossy <= clean {
		t.Errorf("loss should cost time: %v vs %v", lossy, clean)
	}
	if lossy > clean*3 {
		t.Errorf("1%% loss should not triple the time: %v vs %v", lossy, clean)
	}
}

func TestSwitchMLDense(t *testing.T) {
	// SwitchML* should be close to omni on dense data (same pipeline).
	N := 8
	c := cleanCluster(N, 10)
	S := 50e6
	rng := rand.New(rand.NewSource(8))
	sw := SimSwitchML(c, S, PaperConfig(), OmniOpts{})
	spec := UniformSpec(int(S/1024), N, 1024, 1.0, sparsity.OverlapRandom, rng)
	omni := SimOmniReduce(c, spec, PaperConfig(), OmniOpts{})
	if math.Abs(sw-omni)/omni > 0.05 {
		t.Errorf("switchml %v vs omni dense %v", sw, omni)
	}
	// And insensitive to sparsity (it sends everything).
	spec2 := UniformSpec(int(S/1024), N, 1024, 0.01, sparsity.OverlapRandom, rng)
	omniSparse := SimOmniReduce(c, spec2, PaperConfig(), OmniOpts{})
	if omniSparse >= sw {
		t.Errorf("omni at 99%% sparsity %v should beat switchml %v", omniSparse, sw)
	}
}

func TestCopyBottleneckAt100G(t *testing.T) {
	// §6.1.1: at 100 Gbps the staging copy caps RDMA gains at high
	// sparsity; GDR removes the cap.
	N := 8
	S := 100e6
	rng := rand.New(rand.NewSource(9))
	spec := UniformSpec(int(S/1024), N, 1024, 0.01, sparsity.OverlapRandom, rng)
	rdma := SimOmniReduce(Testbed100G(N, N), spec, PaperConfig(), OmniOpts{})
	gdr := SimOmniReduce(Testbed100GGDR(N, N), spec, PaperConfig(), OmniOpts{})
	if gdr >= rdma {
		t.Errorf("GDR %v should beat staged RDMA %v at 99%% sparsity", gdr, rdma)
	}
	// The RDMA time must be at least the copy time of the full tensor.
	copyTime := spec.TotalBytes() * 8 / netsim.Gbps(128)
	if rdma < copyTime {
		t.Errorf("RDMA time %v below copy bound %v", rdma, copyTime)
	}
}

func TestScaledClusterPreservesBandwidthTime(t *testing.T) {
	N := 4
	S := 100e6
	full := SimRingAllReduce(cleanCluster(N, 10), S)
	scaled := SimRingAllReduce(cleanCluster(N, 10).Scaled(100), S/100)
	if math.Abs(full-scaled)/full > 0.02 {
		t.Errorf("scaled sim %v vs full %v", scaled, full)
	}
}

func TestProfileSpecStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := sparsity.DeepLight
	spec := ProfileSpec(p, 8, 256, 1000, rng)
	// Per-worker non-zero fraction should match the profile's block
	// density at bs=256.
	wantDensity := 1 - p.BlockSparsity(256)
	got := spec.PerWorkerNonZeroBytes() / spec.TotalBytes()
	if math.Abs(got-wantDensity)/wantDensity > 0.25 {
		t.Errorf("profile spec density %v vs model %v", got, wantDensity)
	}
	// Union expansion should match the Table 2-derived union factor.
	uf := spec.UnionBytes() / spec.PerWorkerNonZeroBytes()
	want := p.UnionFactor(8)
	if math.Abs(uf-want)/want > 0.25 {
		t.Errorf("union factor %v vs %v", uf, want)
	}
}

func TestUniformSpecOverlapModes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocks := 10_000
	all := UniformSpec(blocks, 4, 1024, 0.1, sparsity.OverlapAll, rng)
	if u, p := all.UnionBytes(), all.PerWorkerNonZeroBytes(); math.Abs(u-p) > 1 {
		t.Errorf("all-overlap union %v != per-worker %v", u, p)
	}
	none := UniformSpec(blocks, 4, 1024, 0.1, sparsity.OverlapNone, rng)
	if u, p := none.UnionBytes(), none.PerWorkerNonZeroBytes(); math.Abs(u-4*p) > 1 {
		t.Errorf("none-overlap union %v != 4x per-worker %v", u, p)
	}
}

func TestConvertTime(t *testing.T) {
	if ConvertTime(100, 0) != 0 {
		t.Fatal("zero rate should be free")
	}
	if got := ConvertTime(10e9, 5e9); math.Abs(got-2) > 1e-9 {
		t.Fatalf("convert time = %v", got)
	}
}
