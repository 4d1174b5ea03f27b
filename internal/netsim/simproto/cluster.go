// Package simproto models every compared collective (ring, AGsparse,
// SparCML SSAR/DSAR, parameter server, SwitchML-style streaming, and
// OmniReduce in dedicated / colocated / switch modes) on the netsim
// discrete-event simulator, at 10 and 100 Gbps scale. These models
// regenerate the paper's evaluation figures; the real implementations in
// internal/core and internal/collective define the protocol semantics the
// models follow.
package simproto

import (
	"math/rand"

	"omnireduce/internal/netsim"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// Cluster describes a simulated testbed (§6 "Testbeds").
type Cluster struct {
	Workers     int
	Aggregators int     // aggregator node count (dedicated mode)
	WorkerBW    float64 // bits/s, full duplex per NIC
	AggBW       float64
	Latency     float64 // one-way seconds
	CPUPerMsg   float64 // per-message processing cost at every node
	CopyBW      float64 // worker staging-copy (PCIe) bandwidth; 0 = GDR
	Colocated   bool    // aggregator shards run on the worker nodes
	// Faults is the OmniReduce fabric's loss and partition schedule (see
	// netsim.NewNet); the zero value is lossless.
	Faults transport.Scenario
}

// Testbed10G models the paper's 10 Gbps testbed: P100 workers without
// GDR (PCIe staging copy at ~100 Gbps), DPDK-style per-packet CPU cost.
func Testbed10G(workers, aggs int) Cluster {
	return Cluster{
		Workers: workers, Aggregators: aggs,
		WorkerBW: netsim.Gbps(10), AggBW: netsim.Gbps(10),
		Latency:   10e-6,
		CPUPerMsg: 1.5e-6,
		CopyBW:    netsim.Gbps(100),
	}
}

// Testbed100G models the 100 Gbps testbed with RDMA: the staging copy
// (~128 Gbps PCIe gen3) is close to line rate and becomes the bottleneck
// at high sparsity, exactly as §6.1.1 reports.
func Testbed100G(workers, aggs int) Cluster {
	return Cluster{
		Workers: workers, Aggregators: aggs,
		WorkerBW: netsim.Gbps(100), AggBW: netsim.Gbps(100),
		Latency:   5e-6,
		CPUPerMsg: 1.0e-6,
		CopyBW:    netsim.Gbps(128),
	}
}

// Testbed100GGDR is the 100 Gbps testbed with GPU-direct RDMA: no staging
// copy.
func Testbed100GGDR(workers, aggs int) Cluster {
	c := Testbed100G(workers, aggs)
	c.CopyBW = 0
	return c
}

// BlockSpec is the abstract multi-worker tensor: which blocks are non-zero
// at which workers, without materializing element data.
type BlockSpec struct {
	Blocks     int
	BlockBytes float64
	PerWorker  []*tensor.Bitmap
}

// TotalBytes is the dense tensor size.
func (s *BlockSpec) TotalBytes() float64 { return float64(s.Blocks) * s.BlockBytes }

// PerWorkerNonZeroBytes returns the average per-worker non-zero volume.
func (s *BlockSpec) PerWorkerNonZeroBytes() float64 {
	var total int
	for _, bm := range s.PerWorker {
		total += bm.Count()
	}
	return float64(total) / float64(len(s.PerWorker)) * s.BlockBytes
}

// UnionBytes returns the volume of blocks non-zero at >= 1 worker.
func (s *BlockSpec) UnionBytes() float64 {
	u := tensor.NewBitmap(s.Blocks)
	for _, bm := range s.PerWorker {
		u.Or(bm)
	}
	return float64(u.Count()) * s.BlockBytes
}

// UniformSpec draws per-worker block occupancy with the given block
// density and overlap mode, the microbenchmarks' "randomly generated
// tensors" (§6.1).
func UniformSpec(blocks, workers int, blockBytes, density float64, overlap sparsity.Overlap, rng *rand.Rand) *BlockSpec {
	spec := &BlockSpec{Blocks: blocks, BlockBytes: blockBytes, PerWorker: make([]*tensor.Bitmap, workers)}
	nz := int(density*float64(blocks) + 0.5)
	switch overlap {
	case sparsity.OverlapAll:
		shared := rng.Perm(blocks)[:nz]
		for w := range spec.PerWorker {
			bm := tensor.NewBitmap(blocks)
			for _, b := range shared {
				bm.Set(b)
			}
			spec.PerWorker[w] = bm
		}
	case sparsity.OverlapNone:
		perm := rng.Perm(blocks)
		idx := 0
		for w := range spec.PerWorker {
			bm := tensor.NewBitmap(blocks)
			for k := 0; k < nz && idx < len(perm); k++ {
				bm.Set(perm[idx])
				idx++
			}
			spec.PerWorker[w] = bm
		}
	default: // OverlapRandom
		for w := range spec.PerWorker {
			bm := tensor.NewBitmap(blocks)
			for _, b := range rng.Perm(blocks)[:nz] {
				bm.Set(b)
			}
			spec.PerWorker[w] = bm
		}
	}
	return spec
}

// ProfileSpec samples block occupancy following a DNN workload profile:
// per-worker block density from the profile's structural model at this
// block size, and inter-worker overlap from its Table 2 distribution. The
// profile's multi-gigabyte gradient is scaled down by `scale` to keep the
// simulation tractable; byte volumes reported by the simulation are then
// multiplied back by the caller (see ScaledIterTime).
func ProfileSpec(p *sparsity.Profile, workers, blockSizeElems, scale int, rng *rand.Rand) *BlockSpec {
	blockBytes := float64(blockSizeElems * 4)
	blocks := int(p.TotalBytes() / int64(scale) / int64(blockSizeElems*4))
	if blocks < 1 {
		blocks = 1
	}
	spec := &BlockSpec{Blocks: blocks, BlockBytes: blockBytes, PerWorker: make([]*tensor.Bitmap, workers)}
	for w := range spec.PerWorker {
		spec.PerWorker[w] = tensor.NewBitmap(blocks)
	}
	density := 1 - p.BlockSparsity(blockSizeElems)
	// Class weights over union blocks (f_k / k).
	var weights [8]float64
	var wSum, meanK float64
	for k := 1; k <= 8; k++ {
		weights[k-1] = p.OverlapVolumeFrac[k-1] / float64(k)
		wSum += weights[k-1]
	}
	if wSum == 0 {
		weights[7] = 1
		wSum = 1
	}
	for k := 1; k <= 8; k++ {
		meanK += float64(k) * weights[k-1] / wSum
	}
	union := int(density*float64(blocks)*float64(workers)/meanK + 0.5)
	if union > blocks {
		union = blocks
	}
	for _, b := range rng.Perm(blocks)[:union] {
		x := rng.Float64() * wSum
		k := 8
		for c := 1; c <= 8; c++ {
			x -= weights[c-1]
			if x <= 0 {
				k = c
				break
			}
		}
		if k > workers {
			k = workers
		}
		for _, w := range rng.Perm(workers)[:k] {
			spec.PerWorker[w].Set(b)
		}
	}
	return spec
}
