// Package exp contains one runner per table and figure of the paper's
// evaluation (§6). Each runner regenerates the corresponding rows/series
// as a metrics.Table; the cmd/omnibench and cmd/trainsim binaries and the
// top-level benchmarks are thin wrappers over these functions.
//
// Simulated experiments use the virtual-time models in
// internal/netsim/simproto with traffic scaled down by Scale (bandwidth
// terms are preserved exactly; see Cluster.Scaled). Real-code experiments
// (Fig 20's bitmap cost, Table 2's overlap synthesis, Figs 11/12's
// training) run the actual implementation.
package exp

import (
	"math"
	"math/rand"

	"omnireduce/internal/metrics"
	"omnireduce/internal/netsim"
	"omnireduce/internal/netsim/simproto"
	"omnireduce/internal/perfmodel"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/transport"
)

// Options tunes experiment fidelity.
type Options struct {
	// Scale divides simulated traffic volume (default 16). Larger is
	// faster and slightly less faithful on latency terms.
	Scale int
	// Seed drives all synthetic data.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 16
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// The microbenchmarks' 100 MB tensor (§6.1).
const microTensorBytes = 100e6

// microBlockBytes is the paper's default 256-float32 block.
const microBlockBytes = 1024

// spec builds a scaled uniform block spec for the microbenchmarks, which
// generate sparsity at block granularity.
func microSpec(o Options, workers int, sparsity1 float64, ov sparsity.Overlap, rng *rand.Rand) *simproto.BlockSpec {
	blocks := int(microTensorBytes / float64(o.Scale) / microBlockBytes)
	return simproto.UniformSpec(blocks, workers, microBlockBytes, 1-sparsity1, ov, rng)
}

func scaledBytes(o Options) float64 { return microTensorBytes / float64(o.Scale) }

// Fabric presets (per-message CPU distinguishes the data paths).
func dpdk10G(o Options, workers int) simproto.Cluster {
	return simproto.Testbed10G(workers, 8).Scaled(o.Scale)
}

func rdma100G(o Options, workers int) simproto.Cluster {
	return simproto.Testbed100G(workers, 8).Scaled(o.Scale)
}

func gdr100G(o Options, workers int) simproto.Cluster {
	return simproto.Testbed100GGDR(workers, 8).Scaled(o.Scale)
}

// nccl models the dense ring baseline on the matching fabric.
func ncclTime(c simproto.Cluster, bytes float64) float64 {
	return simproto.SimRingAllReduce(c, bytes)
}

// Fig4 regenerates Figure 4: AllReduce completion time on 100 MB tensors
// for 2/4/8 workers under DPDK (10 Gbps), RDMA and GDR (100 Gbps), for
// NCCL and OmniReduce at 0/60/90/99% sparsity, plus the line-rate optimal
// ring time.
func Fig4(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 4: AllReduce time on 100MB tensors (ms)",
		"fabric", "workers", "NCCL", "O,0%", "O,60%", "O,90%", "O,99%", "ring@line-rate")
	rng := rand.New(rand.NewSource(o.Seed))
	type fabric struct {
		name string
		mk   func(Options, int) simproto.Cluster
		bw   float64
	}
	fabrics := []fabric{
		{"DPDK-10G", dpdk10G, netsim.Gbps(10)},
		{"RDMA-100G", rdma100G, netsim.Gbps(100)},
		{"GDR-100G", gdr100G, netsim.Gbps(100)},
	}
	for _, f := range fabrics {
		for _, n := range []int{2, 4, 8} {
			c := f.mk(o, n)
			row := []interface{}{f.name, n, ncclTime(c, scaledBytes(o)) * 1e3}
			for _, s := range []float64{0, 0.60, 0.90, 0.99} {
				spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
				row = append(row, simproto.SimOmniReduce(c, spec, simproto.OmniOpts{})*1e3)
			}
			lineRate := 2 * float64(n-1) / float64(n) * microTensorBytes * 8 / f.bw
			row = append(row, lineRate*1e3)
			t.AddRow(row...)
		}
	}
	return t
}

// Fig5 regenerates Figure 5: OmniReduce vs dense AllReduce methods at
// 100 Gbps with 8 workers across sparsity levels.
func Fig5(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 5: vs dense methods at 100Gbps, 8 workers (ms)",
		"sparsity%", "Omni-GDR", "Omni-GDR(Co)", "Omni-RDMA", "NCCL-RDMA", "NCCL-TCP", "BytePS", "SwitchML*")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 8
	gdr := gdr100G(o, n)
	gdrCo := gdr
	gdrCo.Colocated = true
	rdma := rdma100G(o, n)
	tcp := rdma
	tcp.WorkerBW *= 0.6 // TCP efficiency at 100G without kernel bypass
	tcp.AggBW *= 0.6
	for _, s := range []float64{0, 0.20, 0.60, 0.80, 0.90, 0.92, 0.96, 0.98, 0.99} {
		spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
		sb := scaledBytes(o)
		t.AddRow(s*100,
			simproto.SimOmniReduce(gdr, spec, simproto.OmniOpts{})*1e3,
			simproto.SimOmniReduce(gdrCo, spec, simproto.OmniOpts{})*1e3,
			simproto.SimOmniReduce(rdma, spec, simproto.OmniOpts{})*1e3,
			ncclTime(rdma, sb)*1e3,
			ncclTime(tcp, sb)*1e3,
			simproto.SimParameterServer(rdma, sb, 1, 1, 8)*1e3, // BytePS: dense sharded PS
			simproto.SimSwitchML(rdma, sb, simproto.OmniOpts{})*1e3,
		)
	}
	return t
}

// Fig6 regenerates Figure 6: speedup over dense NCCL at 10 Gbps with 8
// workers for OmniReduce and the sparse AllReduce baselines.
func Fig6(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 6: speedup vs NCCL at 10Gbps, 8 workers",
		"sparsity%", "Omni-RDMA", "Omni-RDMA(Co)", "Omni-DPDK", "SSAR", "DSAR", "AGsparse-NCCL", "AGsparse-Gloo", "Parallax")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 8
	c := dpdk10G(o, n)
	rdma := c
	rdma.CPUPerMsg = c.CPUPerMsg / 3 // RDMA's lighter per-message cost
	rdmaCo := rdma
	rdmaCo.Colocated = true
	gloo := c
	gloo.WorkerBW *= 0.85
	base := ncclTime(c, scaledBytes(o))
	for _, s := range []float64{0, 0.20, 0.60, 0.80, 0.90, 0.92, 0.96, 0.98, 0.99} {
		d := 1 - s
		du := 1 - math.Pow(s, float64(n)) // i.i.d. block union density
		spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
		sb := scaledBytes(o)
		t.AddRow(s*100,
			base/simproto.SimOmniReduce(rdma, spec, simproto.OmniOpts{}),
			base/simproto.SimOmniReduce(rdmaCo, spec, simproto.OmniOpts{}),
			base/simproto.SimOmniReduce(c, spec, simproto.OmniOpts{}),
			base/simproto.SimSparCMLSplitAllgather(c, sb, d, du, false),
			base/simproto.SimSparCMLSplitAllgather(c, sb, d, du, true),
			base/simproto.SimAGsparseAllReduce(c, sb, d, 0),
			base/simproto.SimAGsparseAllReduce(gloo, sb, d, 0),
			base/simproto.SimParallax(c, sb, d, du, 8),
		)
	}
	return t
}

// Fig7 regenerates Figure 7: scalability of the sparse methods as workers
// and sparsity vary (speedup vs dense NCCL at the same worker count).
func Fig7(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 7: speedup vs workers and sparsity (10Gbps)",
		"sparsity%", "workers", "OmniReduce", "Parallax", "SSAR", "DSAR", "AGsparse-NCCL", "AGsparse-Gloo")
	rng := rand.New(rand.NewSource(o.Seed))
	for _, s := range []float64{0, 0.60, 0.80, 0.96} {
		for _, n := range []int{2, 4, 8} {
			c := dpdk10G(o, n)
			gloo := c
			gloo.WorkerBW *= 0.85
			base := ncclTime(c, scaledBytes(o))
			d := 1 - s
			du := 1 - math.Pow(s, float64(n))
			spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
			sb := scaledBytes(o)
			t.AddRow(s*100, n,
				base/simproto.SimOmniReduce(c, spec, simproto.OmniOpts{}),
				base/simproto.SimParallax(c, sb, d, du, 8),
				base/simproto.SimSparCMLSplitAllgather(c, sb, d, du, false),
				base/simproto.SimSparCMLSplitAllgather(c, sb, d, du, true),
				base/simproto.SimAGsparseAllReduce(c, sb, d, 0),
				base/simproto.SimAGsparseAllReduce(gloo, sb, d, 0),
			)
		}
	}
	return t
}

// Fig8 regenerates Figure 8: AllReduce execution breakdown including
// format conversion at 99% sparsity (10 Gbps, 8 workers).
func Fig8(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 8: breakdown with format conversion, s=99% (ms)",
		"method", "dense->sparse", "allreduce", "sparse->dense", "total")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 8
	const s = 0.99
	d := 1 - s
	du := 1 - math.Pow(s, float64(n))
	c := dpdk10G(o, n)
	sb := scaledBytes(o)
	spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
	conv := simproto.ConvertTime(microTensorBytes, simproto.DefaultConvertBW)
	convBack := simproto.ConvertTime(du*microTensorBytes, simproto.DefaultConvertBW)

	add := func(name string, d2s, ar, s2d float64) {
		t.AddRow(name, d2s*1e3, ar*1e3, s2d*1e3, (d2s+ar+s2d)*1e3)
	}
	add("Dense(NCCL)", 0, ncclTime(c, sb), 0)
	add("Parallax", conv, simproto.SimParallax(c, sb, d, du, 8), convBack)
	add("AGsparse(NCCL)", conv, simproto.SimAGsparseAllReduce(c, sb, d, 0), convBack)
	add("SSAR_Split_allgather", conv, simproto.SimSparCMLSplitAllgather(c, sb, d, du, false), convBack)
	add("OmniReduce", 0, simproto.SimOmniReduce(c, spec, simproto.OmniOpts{}), 0)
	return t
}

// Fig13 regenerates Figure 13: the multi-GPU microbenchmark (6 nodes of 8
// GPUs at 100 Gbps): NCCL vs OmniReduce with hierarchical aggregation.
func Fig13(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 13: multi-GPU AllReduce on 100MB (ms)",
		"sparsity%", "NCCL", "OmniReduce")
	rng := rand.New(rand.NewSource(o.Seed))
	const nodes = 6
	c := rdma100G(o, nodes)
	c.Aggregators = 6
	// Intra-node NVLink reduce/broadcast: 8 GPUs, ring at ~100 GB/s
	// effective (the first layer of §5's hierarchical aggregation).
	intra := 2 * (8.0 - 1) / 8.0 * microTensorBytes * 8 / 8e11
	for _, s := range []float64{0, 0.60, 0.90, 0.99} {
		spec := microSpec(o, nodes, s, sparsity.OverlapRandom, rng)
		nccl := intra + ncclTime(c, scaledBytes(o))
		omni := 2*intra + simproto.SimOmniReduce(c, spec, simproto.OmniOpts{})
		t.AddRow(s*100, nccl*1e3, omni*1e3)
	}
	return t
}

// Fig15 regenerates Figure 15: block size × sparsity with and without
// Block Fusion (10 Gbps, 8 workers, 100 MB).
func Fig15(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 15: block size and Block Fusion (ms)",
		"sparsity%", "bs", "BF", "NBF")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 8
	c := dpdk10G(o, n)
	for _, s := range []float64{0, 0.20, 0.60, 0.80, 0.90, 0.92, 0.96, 0.98, 0.99} {
		for _, bs := range []int{32, 64, 128, 256} {
			blockBytes := float64(bs * 4)
			blocks := int(microTensorBytes / float64(o.Scale) / blockBytes)
			spec := simproto.UniformSpec(blocks, n, blockBytes, 1-s, sparsity.OverlapRandom, rng)
			// Block Fusion packs blocks up to a ~4 KB payload; without it
			// each packet carries a single block.
			w := 4096 / bs / 4
			if w < 1 {
				w = 1
			}
			if w > 64 {
				w = 64
			}
			bf := simproto.SimOmniReduce(c, spec, simproto.OmniOpts{FusionWidth: w, Streams: 32})
			nbf := simproto.SimOmniReduce(c, spec, simproto.OmniOpts{FusionWidth: 1, Streams: 32 * w})
			t.AddRow(s*100, bs, bf*1e3, nbf*1e3)
		}
	}
	return t
}

// Fig17 regenerates Figure 17: the effect of non-zero block overlap
// (none / random / all) on OmniReduce time.
func Fig17(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 17: overlap effect (ms)",
		"sparsity%", "workers", "random", "none", "all")
	rng := rand.New(rand.NewSource(o.Seed))
	for _, s := range []float64{0, 0.90, 0.96, 0.99} {
		for _, n := range []int{2, 4, 8} {
			c := dpdk10G(o, n)
			row := []interface{}{s * 100, n}
			for _, ov := range []sparsity.Overlap{sparsity.OverlapRandom, sparsity.OverlapNone, sparsity.OverlapAll} {
				spec := microSpec(o, n, s, ov, rng)
				row = append(row, simproto.SimOmniReduce(c, spec, simproto.OmniOpts{})*1e3)
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Fig18 regenerates Figure 18: the in-network P4 aggregator (block sizes
// 34 and 256) against the server aggregator, as speedup over dense NCCL.
func Fig18(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 18: P4 switch aggregator vs server (speedup vs NCCL)",
		"sparsity%", "P4(34)", "P4(256)", "Server", "Dense(NCCL)")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 8
	c := dpdk10G(o, n)
	base := ncclTime(c, scaledBytes(o))
	for _, s := range []float64{0, 0.20, 0.60, 0.80, 0.90, 0.92, 0.96, 0.98, 0.99} {
		row := []interface{}{s * 100}
		// P4(34): the switch's 34-element slot limit forces one small
		// block per packet (SwitchML-style), hurting bandwidth efficiency
		// at low sparsity. P4(256): full-size blocks with the same fusion
		// as the server but negligible aggregator processing.
		{
			blockBytes := 34.0 * 4
			blocks := int(microTensorBytes / float64(o.Scale) / blockBytes)
			spec := simproto.UniformSpec(blocks, n, blockBytes, 1-s, sparsity.OverlapRandom, rng)
			p4 := simproto.SimOmniReduce(c, spec, simproto.OmniOpts{SwitchAgg: true, FusionWidth: 1, Streams: 256})
			row = append(row, base/p4)
		}
		{
			spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
			p4 := simproto.SimOmniReduce(c, spec, simproto.OmniOpts{SwitchAgg: true})
			row = append(row, base/p4)
		}
		spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
		row = append(row, base/simproto.SimOmniReduce(c, spec, simproto.OmniOpts{}), 1.0)
		t.AddRow(row...)
	}
	return t
}

// Fig21 regenerates Figure 21 (Appendix D): the extra AllReduce time due
// to packet loss and recovery, against TCP-based Gloo and NCCL whose
// congestion control collapses at high loss (Mathis model).
func Fig21(o Options) *metrics.Table {
	o = o.withDefaults()
	// Loss recovery is a per-packet mechanism, so this figure runs at a
	// finer traffic scale than the bandwidth-bound figures: the scale
	// factor inflates per-message CPU cost, and the retransmission
	// timeout must comfortably exceed a pipeline round's duration or the
	// simulation degenerates into spurious-retransmission livelock.
	if o.Scale > 8 {
		o.Scale = 8
	}
	t := metrics.NewTable("Fig 21: AllReduce slowdown under packet loss (ms vs lossless)",
		"loss%", "Omni(s=0%)", "Omni(s=90%)", "Omni(s=99%)", "Gloo", "NCCL-TCP")
	rng := rand.New(rand.NewSource(o.Seed))
	const n = 4
	opts := simproto.OmniOpts{Lossy: true, RetransmitTimeout: 10e-3}
	clean := dpdk10G(o, n)
	base := map[float64]float64{}
	for _, s := range []float64{0, 0.90, 0.99} {
		spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
		base[s] = simproto.SimOmniReduce(clean, spec, opts)
	}
	ncclBase := ncclTime(clean, scaledBytes(o))
	for _, loss := range []float64{0.0001, 0.001, 0.01} {
		c := clean
		c.Faults = transport.Scenario{Seed: o.Seed, Phases: []transport.Phase{{Drop: loss}}}
		row := []interface{}{loss * 100}
		for _, s := range []float64{0, 0.90, 0.99} {
			spec := microSpec(o, n, s, sparsity.OverlapRandom, rng)
			row = append(row, (simproto.SimOmniReduce(c, spec, opts)-base[s])*1e3)
		}
		// TCP throughput under random loss: Mathis et al. MSS/(RTT sqrt(2p/3)).
		rtt := 4 * clean.Latency * float64(o.Scale) // effective RTT incl. queueing
		if rtt < 100e-6 {
			rtt = 100e-6
		}
		tcpBW := 1460 * 8 / (rtt * math.Sqrt(2*loss/3))
		for _, eff := range []float64{0.85, 1.0} { // Gloo, NCCL-TCP
			b := clean
			lim := tcpBW * eff
			if lim < b.WorkerBW {
				b.WorkerBW = lim
				b.AggBW = lim
			}
			row = append(row, (ncclTime(b, scaledBytes(o))-ncclBase)*1e3)
		}
		t.AddRow(row...)
	}
	return t
}

// PerfModelTable regenerates the §3.4 analytic speedup table.
func PerfModelTable() *metrics.Table {
	t := metrics.NewTable("§3.4: analytic speedups of OmniReduce",
		"workers", "density", "SU vs ring", "SU vs AGsparse", "SU vs ring (colocated)")
	for _, n := range []int{2, 4, 8, 16} {
		for _, d := range []float64{1, 0.4, 0.1, 0.01} {
			t.AddRow(n, d,
				perfmodel.SpeedupVsRing(n, d),
				perfmodel.SpeedupVsAGsparse(n),
				perfmodel.ColocatedSpeedupVsRing(n, d))
		}
	}
	return t
}
