package simproto

import (
	"math"
	"math/rand"
	"testing"

	"omnireduce/internal/netsim"
	"omnireduce/internal/sparsity"
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
	got := SimOmniReduce(c, spec, OmniOpts{})
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
		got := SimOmniReduce(c, spec, OmniOpts{})
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
	all := SimOmniReduce(c, UniformSpec(blocks, N, 1024, 0.1, sparsity.OverlapAll, rng), OmniOpts{})
	none := SimOmniReduce(c, UniformSpec(blocks, N, 1024, 0.1, sparsity.OverlapNone, rng), OmniOpts{})
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
	omni := SimOmniReduce(c, spec, OmniOpts{})
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
	omni2 := SimOmniReduce(cleanCluster(2, 10), spec2, OmniOpts{})
	omni8 := SimOmniReduce(cleanCluster(8, 10), spec8, OmniOpts{})
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
	tDed := SimOmniReduce(ded, spec, OmniOpts{})
	tCol := SimOmniReduce(col, spec, OmniOpts{})
	if tCol < tDed {
		t.Errorf("colocated %v faster than dedicated %v on dense data", tCol, tDed)
	}
}

func TestOmniLossyConvergesAndCosts(t *testing.T) {
	N := 4
	c := cleanCluster(N, 10)
	c.Faults = transport.Scenario{Phases: []transport.Phase{{Drop: 0.01}}}
	rng := rand.New(rand.NewSource(7))
	spec := UniformSpec(5_000, N, 1024, 0.2, sparsity.OverlapRandom, rng)
	lossy := SimOmniReduce(c, spec, OmniOpts{Lossy: true, RetransmitTimeout: 500e-6})
	c.Faults = transport.Scenario{}
	clean := SimOmniReduce(c, spec, OmniOpts{Lossy: true, RetransmitTimeout: 500e-6})
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
	sw := SimSwitchML(c, S, OmniOpts{})
	spec := UniformSpec(int(S/1024), N, 1024, 1.0, sparsity.OverlapRandom, rng)
	omni := SimOmniReduce(c, spec, OmniOpts{})
	if math.Abs(sw-omni)/omni > 0.05 {
		t.Errorf("switchml %v vs omni dense %v", sw, omni)
	}
	// And insensitive to sparsity (it sends everything).
	spec2 := UniformSpec(int(S/1024), N, 1024, 0.01, sparsity.OverlapRandom, rng)
	omniSparse := SimOmniReduce(c, spec2, OmniOpts{})
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
	rdma := SimOmniReduce(Testbed100G(N, N), spec, OmniOpts{})
	gdr := SimOmniReduce(Testbed100GGDR(N, N), spec, OmniOpts{})
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
