package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
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

// Algorithm names a live collective NewRunner builds: OmniReduce, ring
// AllReduce, or AGsparse, whose dense-to-COO conversion is part of its op
// as in Fig 8's accounting.
type Algorithm int

const (
	OmniReduce Algorithm = iota
	Ring
	AGsparse
)

// LiveSparsities are the points of the paper's curve (§6, Fig 6) on the
// live path, each the share of all-zero blocks.
var LiveSparsities = []float64{0, 0.5, 0.9, 0.99, 0.999}

// Counts are the data blocks and encoded bytes a runner's parties sent.
type Counts struct{ Blocks, WireBytes int64 }

// Runner is a set of parties that run one collective together: the one
// way the repository times a live collective. A caller with a cluster of
// its own (another transport, the public API, jobs) fills the fields.
type Runner struct {
	Parties int
	Op      func(p int, data []float32) error // party p's part of one op
	Counts  func() Counts                     // cumulative, all parties; Time reads it
	closers []func() error
}

// NewRunner builds algo's cluster of cfg.Workers workers on the channel
// fabric. OmniReduce adds one aggregator, node cfg.Workers, in reliable
// mode and takes every field cfg leaves zero from protocol.Defaults();
// ring and AGsparse read only cfg.Workers and send no blocks.
func NewRunner(algo Algorithm, cfg core.Config) (*Runner, error) {
	n := cfg.Workers
	nw := transport.NewNetwork(n, 4096)
	r := &Runner{Parties: n}
	if algo != OmniReduce {
		comms := make([]*collective.Comm, n)
		for i := range comms {
			c, err := collective.NewComm(nw.Conn(i), n)
			if err != nil {
				return nil, errors.Join(err, r.Close())
			}
			comms[i] = c
			r.closers = append(r.closers, c.Close)
		}
		r.Counts = func() (c Counts) {
			for _, comm := range comms {
				c.WireBytes += comm.BytesSent()
			}
			return c
		}
		r.Op = func(p int, data []float32) error { return comms[p].RingAllReduce(data) }
		if algo == AGsparse {
			r.Op = func(p int, data []float32) error {
				_, err := comms[p].AGsparseAllReduce(tensor.FromDense(tensor.FromSlice(data)))
				return err
			}
		}
		return r, nil
	}
	cfg.Aggregators, cfg.Reliable = []int{n}, true
	aggConn := nw.AddNode(n)
	agg, err := core.NewAggregator(aggConn, cfg)
	if err != nil {
		return nil, errors.Join(err, aggConn.Close())
	}
	done := make(chan error, 1)
	go func() { done <- agg.Run() }()
	r.closers = append(r.closers, func() error { aggConn.Close(); return <-done })
	ws := make([]*core.Worker, n)
	for i := range ws {
		if ws[i], err = core.NewWorker(nw.Conn(i), cfg); err != nil {
			return nil, errors.Join(err, r.Close())
		}
		r.closers = append(r.closers, ws[i].Close)
	}
	r.Op = func(p int, data []float32) error { return ws[p].AllReduce(data) }
	r.Counts = func() (c Counts) {
		for _, w := range ws {
			s := w.Stats.Snapshot()
			c.Blocks, c.WireBytes = c.Blocks+s.BlocksSent, c.WireBytes+s.BytesSent
		}
		return c
	}
	return r, nil
}

// Close tears down what NewRunner built, last built first, and drops it,
// so a Runner still referenced afterwards (the testing package keeps a
// benchmark's first -count round) holds no cluster memory.
func (r *Runner) Close() error {
	var errs []error
	for _, c := range slices.Backward(r.closers) {
		errs = append(errs, c())
	}
	r.Op, r.Counts, r.closers = nil, nil, nil
	return errors.Join(errs...)
}

// Run runs one op, party p on data[p], all parties at once.
func (r *Runner) Run(data [][]float32) error {
	errs := make([]error, r.Parties)
	var wg sync.WaitGroup
	for p := range errs {
		wg.Add(1)
		go func() { defer wg.Done(); errs[p] = r.Op(p, data[p]) }()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Timer times ops: a *testing.B, stopped when handed over, or a Stopwatch.
type Timer interface {
	StartTimer()
	StopTimer()
}

// Time runs 4 untimed ops, then ops timed ones, and returns the counts of
// the timed ones. The untimed ops fill the pooled machine, buffer and
// op-state free lists (a sparse tensor's packets spread over every buffer
// size class, and one op does not fill them all: 101-140 allocs/op after
// one, 72-85 after four). Each op starts from a copy of inputs made with
// t stopped: reducing in place would turn every tensor into the union of
// all of them, and the label's sparsity with it. The collector is off:
// a collection evicts the sync.Pool-backed datapath pools, flipping
// allocs/op between warm and cold pools from run to run (210 vs 329 on 4
// workers). A 512 MiB limit still collects AGsparse's per-op tensors.
func (r *Runner) Time(t Timer, inputs [][]float32, ops int) (Counts, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(512 << 20))
	work := make([][]float32, len(inputs))
	for p := range work {
		work[p] = make([]float32, len(inputs[p]))
	}
	restore := func() {
		for p := range work {
			copy(work[p], inputs[p])
		}
	}
	for range 4 {
		restore()
		if err := r.Run(work); err != nil {
			return Counts{}, err
		}
	}
	before := r.Counts()
	for range ops {
		restore()
		t.StartTimer()
		err := r.Run(work)
		t.StopTimer()
		if err != nil {
			return Counts{}, err
		}
	}
	after := r.Counts()
	return Counts{after.Blocks - before.Blocks, after.WireBytes - before.WireBytes}, nil
}

// Stopwatch is a Timer that keeps one sample per timed op.
type Stopwatch struct {
	Samples []time.Duration
	start   time.Time
}

func (s *Stopwatch) StartTimer() { s.start = time.Now() }
func (s *Stopwatch) StopTimer()  { s.Samples = append(s.Samples, time.Since(s.start)) }

// BlockSparseInputs draws one tensor of elems per worker whose share of
// all-zero blocks is s, at the block size OmniReduce runs with, each
// worker's blocks drawn independently: the sparsity the protocol acts on.
func BlockSparseInputs(workers, elems int, s float64, seed int64) [][]float32 {
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

// LiveComparison times the *real* implementations — OmniReduce workers
// plus aggregator, ring AllReduce, and AGsparse — on the in-process fabric
// over LiveSparsities at 2 and 4 workers, 2^24/Scale elements a worker,
// each cell the median of 21 warm ops. Unlike the simulated figures this reflects actual CPU/protocol
// costs (encode/decode, bitmap scans, goroutine scheduling) rather than
// modeled network time, so absolute ordering differs from Fig 6 (the
// channel fabric has memory bandwidth, not NIC bandwidth). The invariants
// that must hold: OmniReduce's transmitted block count tracks block
// sparsity, and at very high sparsity it beats dense ring even on CPU
// cost alone.
func LiveComparison(o Options) *metrics.Table { return liveComparison(o, 21) }

// liveComparison is LiveComparison with each cell the median of ops warm ops.
func liveComparison(o Options, ops int) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable(fmt.Sprintf("Live (wall-clock, in-process, median of %d warm ops): AllReduce time (ms)", ops),
		"sparsity%", "omni-2w", "ring-2w", "agsparse-2w", "blocks-2w", "omni-4w", "ring-4w", "agsparse-4w", "blocks-4w")
	for _, s := range LiveSparsities {
		row := []any{s * 100}
		for _, workers := range []int{2, 4} {
			inputs := BlockSparseInputs(workers, 1<<24/o.Scale, s, o.Seed)
			var blocks int64
			for _, algo := range []Algorithm{OmniReduce, Ring, AGsparse} {
				r, err := NewRunner(algo, core.Config{Workers: workers})
				if err != nil {
					panic(err)
				}
				var sw Stopwatch
				c, err := r.Time(&sw, inputs, ops)
				if err = errors.Join(err, r.Close()); err != nil {
					panic(err)
				}
				blocks += c.Blocks / int64(ops) // the comparators send no blocks
				slices.Sort(sw.Samples)
				row = append(row, float64(sw.Samples[ops/2].Microseconds())/1e3)
			}
			row = append(row, blocks)
		}
		t.AddRow(row...)
	}
	return t
}
