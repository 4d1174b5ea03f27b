package main

import (
	"fmt"
	"math"
	"math/rand"

	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
)

// workers is the number of SPMD callers in every workload: one per core
// of the 2-core box the sizes below were probed on.
const workers = 2

// blockSize is the library's default block (protocol.Defaults); workloads
// that claim block sparsity are generated and checked at this size.
const blockSize = 256

// jobsPerWorker is multijob_chan's fan-out: 2 tenants x 2 jobs.
const jobsPerWorker = 4

type kind int

const (
	kindDense    kind = iota // Worker.AllReduce on one float32 tensor
	kindMultiJob             // 4 named jobs, AllReduceAsync x4 then Wait x4
	kindKV                   // Worker.AllReduceSparse (Algorithm 3)
)

// workload is one named set of inputs plus the topology it runs on. Names
// are final: later issues cite them.
type workload struct {
	name string
	why  string
	kind kind
	// elems is the float32 count per worker. multijob_chan splits it into
	// jobsPerWorker equal tensors, so its total volume equals dense_chan's.
	elems int
	// sparsity is the label: the share of all-zero blocks (blockAligned)
	// or of zero elements (kindKV). The guard in generate holds the
	// inputs to it.
	sparsity     float64
	blockAligned bool
	udp          bool // loopback UDP (Algorithm 2) instead of the channel fabric
	checkpoint   bool // primary streams checkpoints to a standby aggregator
}

// allWorkloads returns the six workloads with tensor sizes divided by
// shrink (1 for real runs; tests pass more to stay inside a few seconds).
func allWorkloads(shrink int) []*workload {
	mi := (1 << 20) / shrink
	return []*workload{
		{name: "dense_chan", kind: kindDense, elems: mi,
			why: "every block crosses the wire: wire, protocol, core driver loops and the channel hop do the work, the bitmap scan almost none"},
		{name: "sparse99_chan", kind: kindDense, elems: mi, sparsity: 0.99, blockAligned: true,
			why: "the paper's headline case, 99% block sparsity: bitmap scan and per-op fixed cost dominate, codecs and machines do little"},
		{name: "dense_udp", kind: kindDense, elems: mi / 4, udp: true,
			why: "same protocol through Algorithm 2 (acks, timers) and real syscalls on host loopback: UDP transport and txBatch dominate"},
		{name: "multijob_chan", kind: kindMultiJob, elems: mi,
			why: "one aggregator, 2 tenants x 2 jobs in flight: namespace demux, admission and the tenant DRR hop per packet"},
		{name: "kv_sparse_chan", kind: kindKV, elems: mi, sparsity: 0.99,
			why: "Algorithm 3 key-value path at 1% element density, no block structure: sorted-run merge instead of block accumulate"},
		{name: "checkpoint_chan", kind: kindDense, elems: mi, checkpoint: true,
			why: "dense_chan with a standby: every emitting machine step also gob-encodes and ships a checkpoint, the steady-state price of failover"},
	}
}

// inputs are a workload's generated tensors and the expected result. The
// library only ever sees copies of these.
type inputs struct {
	pristine [][]float32 // per worker
	ref      []float32   // element-wise sum over workers
	// kv workloads reduce the COO form of pristine and expect refCOO.
	coo    []*tensor.COO
	refCOO *tensor.COO

	achieved      float64 // measured sparsity, same sense as workload.sparsity
	nonzeroBlocks int     // (worker, block) pairs that are non-zero
	opBytes       int     // reduced bytes per worker per op (goodput numerator)
}

// generate builds wl's inputs from seed with internal/sparsity and holds
// them to the workload's label: a workload whose achieved sparsity is more
// than half a point off its name is refused, so element-wise zeroing can
// never again be reported as block sparsity.
func generate(wl *workload, seed int64) (*inputs, error) {
	spec := sparsity.GenSpec{
		Elements: wl.elems,
		Sparsity: wl.sparsity,
		Workers:  workers,
		Overlap:  sparsity.OverlapRandom,
	}
	if wl.blockAligned {
		spec.BlockAligned = blockSize
	}
	ts := sparsity.Generate(spec, rand.New(rand.NewSource(seed)))
	in := &inputs{ref: make([]float32, wl.elems), opBytes: 4 * wl.elems}
	var blockSp, elemSp float64
	for _, t := range ts {
		in.pristine = append(in.pristine, t.Data)
		tensor.AddF32(in.ref, t.Data)
		bm := tensor.ComputeBitmap(t, blockSize)
		in.nonzeroBlocks += bm.Count()
		blockSp += bm.BlockSparsity() / workers
		elemSp += t.Sparsity() / workers
	}
	in.achieved = blockSp
	if wl.kind == kindKV {
		in.achieved = elemSp
		for _, t := range ts {
			in.coo = append(in.coo, tensor.FromDense(t))
		}
		in.refCOO = in.coo[0]
		for _, c := range in.coo[1:] {
			in.refCOO = in.refCOO.AddCOO(c)
		}
		in.opBytes = in.coo[0].NNZBytes()
	}
	if math.Abs(in.achieved-wl.sparsity) > 0.005 {
		return nil, fmt.Errorf("%s: achieved sparsity %.4f is not the labelled %.4f", wl.name, in.achieved, wl.sparsity)
	}
	return in, nil
}
