package exp

import (
	"math/rand"

	"omnireduce/internal/metrics"
	"omnireduce/internal/netsim/simproto"
	"omnireduce/internal/sparsity"
)

// Ablations for the design choices DESIGN.md calls out, beyond the
// paper's own block-size study (Fig 15): the slot-pool depth (§3.1.1's
// pipeline) and the fusion width (§3.2), plus aggregator fan-out
// (sharding) and the colocation trade-off (§3.4).

// AblationStreams sweeps the number of parallel aggregation streams: too
// few streams cannot cover the round-trip pipeline and leave bandwidth
// idle; beyond the bandwidth-delay product more streams stop helping.
func AblationStreams(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Ablation: slot-pool depth (streams), 8 workers, s=90%, 10Gbps (ms)",
		"streams", "time")
	rng := rand.New(rand.NewSource(o.Seed))
	c := dpdk10G(o, 8)
	spec := microSpec(o, 8, 0.90, sparsity.OverlapRandom, rng)
	cfg := simproto.PaperConfig()
	for _, streams := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		cfg.Streams = streams
		t.AddRow(streams, simproto.SimOmniReduce(c, spec, cfg, simproto.OmniOpts{})*1e3)
	}
	return t
}

// AblationFusionWidth sweeps the number of blocks fused per packet at a
// fixed 256-element block: wider fusion amortizes per-packet metadata and
// CPU, at the cost of coarser aggregation units.
func AblationFusionWidth(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Ablation: fusion width, 8 workers, 10Gbps (ms)",
		"width", "s=0%", "s=90%", "s=99%")
	rng := rand.New(rand.NewSource(o.Seed))
	c := dpdk10G(o, 8)
	specs := map[float64]*simproto.BlockSpec{}
	for _, s := range []float64{0, 0.90, 0.99} {
		specs[s] = microSpec(o, 8, s, sparsity.OverlapRandom, rng)
	}
	cfg := simproto.PaperConfig()
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		cfg.FusionWidth = w
		row := []interface{}{w}
		for _, s := range []float64{0, 0.90, 0.99} {
			row = append(row, simproto.SimOmniReduce(c, specs[s], cfg, simproto.OmniOpts{})*1e3)
		}
		t.AddRow(row...)
	}
	return t
}

// AblationAggregators sweeps the aggregator node count: §3.4 assumes the
// aggregate aggregator bandwidth matches the combined worker bandwidth
// (M = N); fewer shards bottleneck dense traffic.
func AblationAggregators(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Ablation: aggregator shards, 8 workers, 10Gbps (ms)",
		"aggregators", "s=0%", "s=90%")
	rng := rand.New(rand.NewSource(o.Seed))
	specs := map[float64]*simproto.BlockSpec{
		0:    microSpec(o, 8, 0, sparsity.OverlapRandom, rng),
		0.90: microSpec(o, 8, 0.90, sparsity.OverlapRandom, rng),
	}
	for _, m := range []int{1, 2, 4, 8} {
		c := dpdk10G(o, 8)
		c.Aggregators = m
		t.AddRow(m,
			omniTime(c, specs[0])*1e3,
			omniTime(c, specs[0.90])*1e3)
	}
	return t
}

// AblationColocation compares dedicated vs colocated aggregators across
// sparsity (§3.4's "benefit diminishes by a factor of 2" analysis and
// §6.1's observation that colocation matches dedicated mode above ~80%
// sparsity).
func AblationColocation(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Ablation: dedicated vs colocated aggregation, 8 workers, 10Gbps (ms)",
		"sparsity%", "dedicated", "colocated")
	rng := rand.New(rand.NewSource(o.Seed))
	ded := dpdk10G(o, 8)
	col := ded
	col.Colocated = true
	for _, s := range []float64{0, 0.60, 0.80, 0.90, 0.99} {
		spec := microSpec(o, 8, s, sparsity.OverlapRandom, rng)
		t.AddRow(s*100,
			omniTime(ded, spec)*1e3,
			omniTime(col, spec)*1e3)
	}
	return t
}
