package exp

import (
	"math/rand"
	"time"

	"omnireduce/internal/compress"
	"omnireduce/internal/ddl"
	"omnireduce/internal/metrics"
	"omnireduce/internal/netsim/simproto"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
)

// profileScale keeps profile-driven simulations tractable: a DeepLight
// gradient is 2.26 GB; at scale 1000 the simulated volume is ~2.3 MB with
// bandwidth terms preserved (Cluster.Scaled).
const profileScale = 1000

// commTimes computes per-iteration communication times for one workload
// under NCCL ring and OmniReduce on the given fabric.
func commTimes(o Options, p *sparsity.Profile, workers int, mk func(Options, int) simproto.Cluster) (nccl, omni float64) {
	c := mk(o, workers)
	// Re-scale for the profile's gradient size: mk applied o.Scale; undo
	// and apply profileScale instead.
	c = unscale(c, o.Scale).Scaled(profileScale)
	rng := rand.New(rand.NewSource(o.Seed + int64(len(p.Name))))
	bytes := float64(p.TotalBytes()) / profileScale
	nccl = simproto.SimRingAllReduce(c, bytes)
	spec := simproto.ProfileSpec(p, workers, 256, profileScale, rng)
	omni = omniTime(c, spec)
	return nccl, omni
}

func unscale(c simproto.Cluster, scale int) simproto.Cluster {
	f := float64(scale)
	c.WorkerBW *= f
	c.AggBW *= f
	if c.CopyBW > 0 {
		c.CopyBW *= f
	}
	c.CPUPerMsg /= f
	return c
}

// Fig1 regenerates Figure 1: the scaling factor of the six workloads
// under NCCL ring AllReduce at 10 Gbps as workers increase.
func Fig1(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 1: NCCL scaling factor at 10Gbps",
		"model", "sf@2", "sf@4", "sf@8")
	for _, p := range sparsity.Workloads {
		row := []interface{}{p.Name}
		for _, n := range []int{2, 4, 8} {
			nccl, _ := commTimes(o, p, n, dpdk10G)
			row = append(row, ddl.ScalingFactor(p, nccl))
		}
		t.AddRow(row...)
	}
	return t
}

// Table1 regenerates Table 1: workload characteristics and the modeled
// per-worker OmniReduce communication volume at block size 256.
func Table1(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Table 1: benchmark DNN workloads",
		"model", "dense", "embedding", "sparsity%", "paper-sparsity%", "omni-comm", "comm%", "paper-comm")
	for _, p := range sparsity.Workloads {
		comm := p.OmniCommBytes(256)
		t.AddRow(p.Name,
			metrics.FormatBytes(float64(p.DenseBytes)),
			metrics.FormatBytes(float64(p.EmbBytes)),
			p.ElementSparsity()*100,
			p.PaperSparsity*100,
			metrics.FormatBytes(float64(comm)),
			float64(comm)/float64(p.TotalBytes())*100,
			metrics.FormatBytes(float64(p.PaperOmniCommBytes)),
		)
	}
	return t
}

// Table2 regenerates Table 2: the breakdown of transmitted block volume
// by the number of workers sharing each non-zero block, measured on
// synthesized 8-worker gradients.
func Table2(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Table 2: communication by non-zero block overlap (8 workers, % of volume)",
		"overlap", "DeepLight", "LSTM", "NCF", "BERT", "VGG19", "ResNet152", "sBERT")
	models := []*sparsity.Profile{
		sparsity.DeepLight, sparsity.LSTM, sparsity.NCF,
		sparsity.BERT, sparsity.VGG19, sparsity.ResNet152, sparsity.SBERT,
	}
	fracs := make([][]float64, len(models))
	for i, p := range models {
		rng := rand.New(rand.NewSource(o.Seed + int64(i)))
		ws := p.SynthesizeWorkers(8, 1<<22, 256, rng)
		st := sparsity.ComputeGlobalBlockStats(ws, 256)
		fracs[i] = st.SentVolumeFractionByOverlap()
	}
	labels := []string{"None", "2", "3", "4", "5", "6", "7", "All"}
	for k := 0; k < 8; k++ {
		row := []interface{}{labels[k]}
		for i := range models {
			row = append(row, fracs[i][k]*100)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9 regenerates Figure 9: scaling factors of NCCL vs OmniReduce for
// the six workloads at 8 workers / 10 Gbps.
func Fig9(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 9: scaling factor at 8 workers, 10Gbps",
		"model", "NCCL", "OmniReduce", "paper-NCCL", "paper-Omni")
	paperN := map[string][2]float64{
		"DeepLight": {0.044, 0.362}, "LSTM": {0.121, 0.639}, "NCF": {0.175, 0.382},
		"BERT": {0.287, 0.362}, "VGG19": {0.497, 0.859}, "ResNet152": {0.948, 0.991},
	}
	for _, p := range sparsity.Workloads {
		nccl, omni := commTimes(o, p, 8, dpdk10G)
		pp := paperN[p.Name]
		t.AddRow(p.Name,
			ddl.ScalingFactor(p, nccl),
			ddl.ScalingFactor(p, omni),
			pp[0], pp[1])
	}
	return t
}

// Fig10 regenerates Figure 10: end-to-end training speedup over NCCL for
// OmniReduce, SwitchML*, and AGsparse with 1% compression, at 10 and
// 100 Gbps (8 workers).
func Fig10(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 10: training speedup vs NCCL (8 workers)",
		"net", "model", "OmniReduce", "SwitchML*", "AGsparse+1%", "paper-Omni")
	paper := map[string][2]float64{
		"DeepLight": {8.2, 2.9}, "LSTM": {5.3, 1.4}, "NCF": {2.2, 1.5},
		"BERT": {1.3, 1.0}, "VGG19": {1.7, 1.0}, "ResNet152": {1.0, 1.0},
	}
	type net struct {
		name string
		mk   func(Options, int) simproto.Cluster
		idx  int
	}
	for _, nt := range []net{{"10G", dpdk10G, 0}, {"100G", gdr100G, 1}} {
		for _, p := range sparsity.Workloads {
			nccl, omni := commTimes(o, p, 8, nt.mk)
			c := unscale(nt.mk(o, 8), o.Scale).Scaled(profileScale)
			bytes := float64(p.TotalBytes()) / profileScale
			sw := simproto.SimSwitchML(c, bytes, simproto.PaperConfig(), simproto.OmniOpts{})
			// AGsparse with 1% compression: conversion of the full dense
			// gradient dominates (§6.2.2); compression cost excluded.
			ag := simproto.ConvertTime(float64(p.TotalBytes()), simproto.DefaultConvertBW) +
				simproto.SimAGsparseAllReduce(c, bytes, 0.01, 0)
			t.AddRow(nt.name, p.Name,
				ddl.Speedup(p, nccl, omni),
				ddl.Speedup(p, nccl, sw),
				ddl.Speedup(p, nccl, ag),
				paper[p.Name][nt.idx])
		}
	}
	return t
}

// Fig14 regenerates Figure 14: multi-GPU (6 nodes x 8 GPUs, 100 Gbps)
// end-to-end training speedup of OmniReduce over NCCL.
func Fig14(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 14: multi-GPU training speedup vs NCCL (6x8 GPUs, 100Gbps)",
		"model", "speedup", "paper")
	paper := map[string]float64{
		"DeepLight": 2.6, "LSTM": 1.3, "NCF": 1.3, "BERT": 1.0, "VGG19": 1.1, "ResNet152": 1.0,
	}
	for _, p := range sparsity.Workloads {
		nccl, omni := commTimes(o, p, 6, rdma100G)
		intra := 2 * 7.0 / 8.0 * float64(p.TotalBytes()) * 8 / 8e11
		t.AddRow(p.Name,
			ddl.Speedup(p, nccl+intra, omni+2*intra),
			paper[p.Name])
	}
	return t
}

// Fig16 regenerates Figure 16: block sparsity and density-within-block as
// functions of block size, per workload. Block sparsity comes from the
// analytic structural model; within-block density is measured on a
// synthesized scaled gradient.
func Fig16(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 16: block sparsity / density within block vs block size (%)",
		"model", "bs", "block-sparsity", "density-within-block")
	for i, p := range sparsity.Workloads {
		rng := rand.New(rand.NewSource(o.Seed + int64(i)))
		g := p.SynthesizeGradient(2000, rng)
		for _, bs := range []int{1, 32, 64, 128, 256, 352} {
			t.AddRow(p.Name, bs,
				p.BlockSparsity(bs)*100,
				tensor.DensityWithinBlocks(g, bs)*100)
		}
	}
	return t
}

// Fig20 regenerates Figure 20: the bitmap computation cost as a function
// of block size, measured on the real (goroutine-sharded) implementation
// over a 100 MB float tensor, against the simulated NCCL+GDR AllReduce
// reference line.
func Fig20(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 20: bitmap calculation cost on 100MB (ms)",
		"block-size", "bitmap", "NCCL-GDR-reference")
	rng := rand.New(rand.NewSource(o.Seed))
	const elems = 25_000_000
	d := tensor.NewDense(elems)
	for i := range d.Data {
		if rng.Float64() < 0.3 {
			d.Data[i] = float32(rng.NormFloat64())
		}
	}
	ref := simproto.SimRingAllReduce(unscale(gdr100G(o, 8), o.Scale), 100e6)
	for _, bs := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		start := time.Now()
		reps := 3
		for r := 0; r < reps; r++ {
			tensor.ComputeBitmap(d, bs)
		}
		elapsed := time.Since(start).Seconds() / float64(reps)
		t.AddRow(bs, elapsed*1e3, ref*1e3)
	}
	return t
}

// Fig11 regenerates Figure 11: training quality (accuracy) and speedup
// for the four block-based compressors on a BERT-like workload. Speedups
// use the sBERT communication profile; accuracy comes from real SGD with
// error feedback on the synthetic task.
func Fig11(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 11: block compression accuracy and speedup",
		"method", "accuracy%", "speedup-vs-NCCL")
	task := ddl.NewTask(256, 2_000, 16, o.Seed)
	nb := (task.Dim() + 255) / 256
	k := nb / 100 // 1% compression, the paper's setting
	if k < 1 {
		k = 1
	}
	methods := []struct {
		name string
		mk   func(w int) compress.Compressor
		prof *sparsity.Profile
	}{
		{"No-Compression", nil, sparsity.BERT},
		{"Block-Random-k", func(w int) compress.Compressor {
			return &compress.BlockRandomK{BS: 256, K: k, Rng: rand.New(rand.NewSource(o.Seed + int64(w)))}
		}, sparsity.SBERT},
		{"Block-Threshold", func(w int) compress.Compressor {
			return &compress.BlockThreshold{BS: 256, Threshold: 0.1664}
		}, sparsity.SBERT},
		{"Block-Top-k-Ratio", nil, sparsity.SBERT}, // params wired below
		{"Block-Top-k", func(w int) compress.Compressor {
			return &compress.BlockTopK{BS: 256, K: k}
		}, sparsity.SBERT},
	}
	// Communication times: BERT profile for no compression, the sBERT
	// profile (1% block top-k, Table 2 last column) for compressed runs.
	ncclComm, _ := commTimes(o, sparsity.BERT, 8, dpdk10G)
	for _, m := range methods {
		var acc float64
		cfg := ddl.TrainConfig{
			Workers: 4, Batch: 16, Iterations: 250, LR: 0.5,
			Seed: o.Seed, ErrorFeedback: m.mk != nil,
			NewCompressor: m.mk,
		}
		if m.name == "Block-Top-k-Ratio" {
			// The update-ratio variant needs parameter access; the
			// synthetic trainer approximates it with Block Top-k over
			// gradients normalized by a unit parameter scale, which for a
			// zero-initialized model coincides with Block Top-k.
			cfg.NewCompressor = func(w int) compress.Compressor {
				return &compress.BlockTopK{BS: 256, K: k}
			}
			cfg.ErrorFeedback = true
		}
		res, err := task.Train(cfg)
		if err != nil {
			acc = 0
		} else {
			acc = res.Accuracy
		}
		_, omniComm := commTimes(o, m.prof, 8, dpdk10G)
		su := ddl.Speedup(sparsity.BERT, ncclComm, omniComm)
		if m.name == "No-Compression" {
			su = ddl.Speedup(sparsity.BERT, ncclComm, omniComm)
		}
		t.AddRow(m.name, acc*100, su)
	}
	return t
}

// Fig12 regenerates Figure 12: training loss trajectories under the block
// compressors (real EF-SGD on the synthetic task).
func Fig12(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Fig 12: training loss under block compression",
		"iteration", "None", "Block-RandomK", "Block-TopK", "Block-Threshold")
	task := ddl.NewTask(256, 2_000, 16, o.Seed)
	nb := (task.Dim() + 255) / 256
	k := nb / 10
	if k < 1 {
		k = 1
	}
	run := func(mk func(int) compress.Compressor) []float64 {
		res, err := task.Train(ddl.TrainConfig{
			Workers: 4, Batch: 16, Iterations: 300, LR: 0.5,
			Seed: o.Seed, NewCompressor: mk, ErrorFeedback: mk != nil,
			LossEvery: 25,
		})
		if err != nil {
			return nil
		}
		return res.Losses
	}
	none := run(nil)
	randk := run(func(w int) compress.Compressor {
		return &compress.BlockRandomK{BS: 256, K: k, Rng: rand.New(rand.NewSource(o.Seed + int64(w)*31))}
	})
	topk := run(func(int) compress.Compressor { return &compress.BlockTopK{BS: 256, K: k} })
	thr := run(func(int) compress.Compressor { return &compress.BlockThreshold{BS: 256, Threshold: 0.05} })
	for i := range none {
		t.AddRow(i*25, none[i], at(randk, i), at(topk, i), at(thr, i))
	}
	return t
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
