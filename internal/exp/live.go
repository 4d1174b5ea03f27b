package exp

import (
	"math/rand"
	"sync"
	"time"

	"omnireduce/internal/collective"
	"omnireduce/internal/core"
	"omnireduce/internal/metrics"
	"omnireduce/internal/protocol"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// FromDenseSlice extracts the non-zero elements of v as a COO tensor.
func FromDenseSlice(v []float32) *tensor.COO {
	return tensor.FromDense(tensor.FromSlice(v))
}

// LiveComparison measures the *real* implementations — OmniReduce workers
// plus aggregator, ring AllReduce, and AGsparse — wall-clock on the
// in-process fabric as block sparsity varies. Unlike the simulated figures
// this reflects actual CPU/protocol costs (encode/decode, bitmap scans,
// goroutine scheduling) rather than modeled network time, so absolute
// ordering differs from Fig 6 (the channel fabric has memory bandwidth,
// not NIC bandwidth). The invariants that must hold: OmniReduce's
// transmitted block count tracks block sparsity, and at very high sparsity
// it beats dense ring even on CPU cost alone.
func LiveComparison(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("Live (wall-clock, in-process): AllReduce time (ms)",
		"sparsity%", "omnireduce", "ring", "agsparse", "omni-blocks-sent")
	const (
		workers = 4
		elems   = 1 << 20
		iters   = 3
	)
	for _, s := range []float64{0, 0.90, 0.99, 0.999} {
		inputs := liveInputs(workers, elems, s, o.Seed)

		omniT, blocks := liveOmni(workers, inputs, iters)
		ringT := liveRing(workers, inputs, iters)
		agT := liveAGsparse(workers, inputs, iters)
		t.AddRow(s*100, omniT*1e3, ringT*1e3, agT*1e3, blocks)
	}
	return t
}

// liveInputs draws each worker's tensor with the given *block* sparsity at
// the block size OmniReduce runs with, so the row label is the fraction of
// blocks the protocol may skip (independently per worker).
func liveInputs(workers, elems int, s float64, seed int64) [][]float32 {
	ts := sparsity.Generate(sparsity.GenSpec{
		Elements: elems, Sparsity: s, Workers: workers,
		BlockAligned: protocol.Defaults().BlockSize,
	}, rand.New(rand.NewSource(seed)))
	out := make([][]float32, workers)
	for w, t := range ts {
		out[w] = t.Data
	}
	return out
}

func cloneAll(in [][]float32) [][]float32 {
	out := make([][]float32, len(in))
	for i := range in {
		out[i] = append([]float32(nil), in[i]...)
	}
	return out
}

func liveOmni(workers int, inputs [][]float32, iters int) (sec float64, blocksSent int64) {
	cfg := core.Config{
		Workers: workers, Aggregators: []int{workers},
		Reliable: true, Streams: 8,
	}
	nw := transport.NewNetwork(workers, 4096)
	aggConn := nw.AddNode(workers)
	agg, err := core.NewAggregator(aggConn, cfg)
	if err != nil {
		panic(err)
	}
	go agg.Run()
	defer aggConn.Close()
	ws := make([]*core.Worker, workers)
	for i := range ws {
		if ws[i], err = core.NewWorker(nw.Conn(i), cfg); err != nil {
			panic(err)
		}
		defer ws[i].Close()
	}
	start := time.Now()
	for it := 0; it < iters; it++ {
		data := cloneAll(inputs)
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := ws[i].AllReduce(data[i]); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
	}
	for _, w := range ws {
		blocksSent += w.Stats.BlocksSent
	}
	return time.Since(start).Seconds() / float64(iters), blocksSent / int64(iters)
}

func liveRing(workers int, inputs [][]float32, iters int) float64 {
	nw := transport.NewNetwork(workers, 4096)
	cs := make([]*collective.Comm, workers)
	for i := range cs {
		c, err := collective.NewComm(nw.Conn(i), workers)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		cs[i] = c
	}
	start := time.Now()
	for it := 0; it < iters; it++ {
		data := cloneAll(inputs)
		var wg sync.WaitGroup
		for i := range cs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := cs[i].RingAllReduce(data[i]); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
	}
	return time.Since(start).Seconds() / float64(iters)
}

func liveAGsparse(workers int, inputs [][]float32, iters int) float64 {
	nw := transport.NewNetwork(workers, 4096)
	cs := make([]*collective.Comm, workers)
	for i := range cs {
		c, err := collective.NewComm(nw.Conn(i), workers)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		cs[i] = c
	}
	start := time.Now()
	for it := 0; it < iters; it++ {
		var wg sync.WaitGroup
		for i := range cs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// AGsparse includes the dense->sparse conversion, as in
				// Fig 8's accounting.
				in := FromDenseSlice(inputs[i])
				if _, err := cs[i].AGsparseAllReduce(in); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
	}
	return time.Since(start).Seconds() / float64(iters)
}
