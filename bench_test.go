package omnireduce

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, each regenerating the corresponding rows via the
// internal/exp runners, plus wall-clock benchmarks of the real library on
// the in-process fabric. Run everything with:
//
//	go test -bench=. -benchmem
//
// Individual figures: go test -bench=BenchmarkFig04
// The regenerated tables are printed once per benchmark (use -v).

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/core"
	"omnireduce/internal/exp"
	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/transport"
)

// benchOpts uses a coarser scale than the CLI default so the full bench
// suite stays fast; cmd/omnibench regenerates at higher fidelity.
func benchOpts() exp.Options { return exp.Options{Scale: 64, Seed: 42} }

var printTables = os.Getenv("OMNIBENCH_PRINT") != ""

func runFigure(b *testing.B, f func(exp.Options) *metrics.Table) {
	b.Helper()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = f(benchOpts())
	}
	if t != nil && printTables {
		t.Render(os.Stdout)
	}
	if t == nil || t.Rows() == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkTable1(b *testing.B) { runFigure(b, exp.Table1) }
func BenchmarkTable2(b *testing.B) { runFigure(b, exp.Table2) }
func BenchmarkFig01(b *testing.B)  { runFigure(b, exp.Fig1) }
func BenchmarkFig04(b *testing.B)  { runFigure(b, exp.Fig4) }
func BenchmarkFig05(b *testing.B)  { runFigure(b, exp.Fig5) }
func BenchmarkFig06(b *testing.B)  { runFigure(b, exp.Fig6) }
func BenchmarkFig07(b *testing.B)  { runFigure(b, exp.Fig7) }
func BenchmarkFig08(b *testing.B)  { runFigure(b, exp.Fig8) }
func BenchmarkFig09(b *testing.B)  { runFigure(b, exp.Fig9) }
func BenchmarkFig10(b *testing.B)  { runFigure(b, exp.Fig10) }
func BenchmarkFig11(b *testing.B)  { runFigure(b, exp.Fig11) }
func BenchmarkFig12(b *testing.B)  { runFigure(b, exp.Fig12) }
func BenchmarkFig13(b *testing.B)  { runFigure(b, exp.Fig13) }
func BenchmarkFig14(b *testing.B)  { runFigure(b, exp.Fig14) }
func BenchmarkFig15(b *testing.B)  { runFigure(b, exp.Fig15) }
func BenchmarkFig16(b *testing.B)  { runFigure(b, exp.Fig16) }
func BenchmarkFig17(b *testing.B)  { runFigure(b, exp.Fig17) }
func BenchmarkFig18(b *testing.B)  { runFigure(b, exp.Fig18) }
func BenchmarkFig20(b *testing.B)  { runFigure(b, exp.Fig20) }
func BenchmarkFig21(b *testing.B)  { runFigure(b, exp.Fig21) }

func BenchmarkAblationStreams(b *testing.B)     { runFigure(b, exp.AblationStreams) }
func BenchmarkAblationFusionWidth(b *testing.B) { runFigure(b, exp.AblationFusionWidth) }
func BenchmarkAblationAggregators(b *testing.B) { runFigure(b, exp.AblationAggregators) }
func BenchmarkAblationColocation(b *testing.B)  { runFigure(b, exp.AblationColocation) }

func BenchmarkPerfModel(b *testing.B) {
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = exp.PerfModelTable()
	}
	if printTables {
		t.Render(os.Stdout)
	}
}

// Wall-clock benchmarks of the real library on the in-process fabric:
// AllReduce throughput as sparsity and worker count vary.

func benchCluster(b *testing.B, workers int) *LocalCluster {
	b.Helper()
	// Pin GC off for the lifetime of the cluster: the datapath pools
	// (protocol machines, transport buffers, op states) are
	// sync.Pool-backed, and a GC pass mid-run evicts them, flipping
	// allocs/op between a warm-pool and a cold-pool mode from run to run
	// (observed 210 vs 329 on workers=4 — the benchjson alloc gate flaked
	// on that spread). With collection disabled the benchmark measures
	// steady-state allocation behavior, which is what the gate pins.
	prev := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(prev) })
	c, err := NewLocalCluster(Options{Workers: workers, Streams: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func benchInputs(workers, n int, sparsity float64, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, workers)
	for w := range out {
		out[w] = make([]float32, n)
		for i := range out[w] {
			if rng.Float64() >= sparsity {
				out[w][i] = float32(rng.NormFloat64())
			}
		}
	}
	return out
}

// blockSparseInputs draws one tensor per worker with the given share of
// all-zero blocks (internal/sparsity, random overlap, blocks of the
// library's default size) — the sparsity OmniReduce acts on. Zeroing
// elements instead leaves practically every block non-zero: a dense run
// under a sparse label.
func blockSparseInputs(workers, n int, blockSparsity float64, seed int64) [][]float32 {
	ts := sparsity.Generate(sparsity.GenSpec{
		Elements:     n,
		Sparsity:     blockSparsity,
		Workers:      workers,
		Overlap:      sparsity.OverlapRandom,
		BlockAligned: protocol.Defaults().BlockSize,
	}, rand.New(rand.NewSource(seed)))
	out := make([][]float32, workers)
	for w, t := range ts {
		out[w] = t.Data
	}
	return out
}

// benchAllReduce times b.N AllReduce rounds of inputs over ws and reports
// the workers' encoded bytes per round as wire-B/op. Every round starts
// from a fresh copy of inputs (untimed): reducing in place would turn each
// worker's tensor into the union of all of them after one round, and the
// label's sparsity with it. Four untimed rounds first populate the pooled
// machine/buffer/op-state free lists, so allocs/op is the warm steady
// state, not first-contact pool fills (a sparse tensor's packets spread
// over every buffer size class up to the full packet, and one round does
// not fill them all: 101-140 allocs/op after one, 72-85 after four).
func benchAllReduce(b *testing.B, ws []*Worker, inputs [][]float32) {
	b.Helper()
	work := make([][]float32, len(inputs))
	for w := range work {
		work[w] = make([]float32, len(inputs[w]))
	}
	round := func() {
		for w := range work {
			copy(work[w], inputs[w])
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for w := range ws {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := ws[w].AllReduce(work[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
	}
	wireBytes := func() (n int64) {
		for _, w := range ws {
			n += w.Stats().BytesSent
		}
		return n
	}
	b.StopTimer()
	for i := 0; i < 4; i++ {
		round()
	}
	b.SetBytes(int64(4 * len(inputs[0])))
	b.ResetTimer()
	before := wireBytes()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(wireBytes()-before)/float64(b.N), "wire-B/op")
}

func clusterWorkers(c *LocalCluster) []*Worker {
	ws := make([]*Worker, c.Size())
	for w := range ws {
		ws[w] = c.Worker(w)
	}
	return ws
}

// BenchmarkAllReduceLive: sparsity is the share of all-zero blocks.
func BenchmarkAllReduceLive(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		for _, s := range []float64{0, 0.9, 0.99} {
			name := fmt.Sprintf("workers=%d/sparsity=%v", workers, s)
			b.Run(name, func(b *testing.B) {
				c := benchCluster(b, workers)
				benchAllReduce(b, clusterWorkers(c), blockSparseInputs(workers, 1<<20, s, 7))
			})
		}
	}
}

// BenchmarkPacketShape is the evidence behind protocol.Defaults' packet
// shape: FusionWidth x Streams on inputs shaped like the repository
// benchmark's dense_chan / sparse99_chan (2 workers, 1 Mi elements, channel
// fabric) and dense_udp (256 Ki elements, loopback UDP). Wider packets
// amortise the per-packet cost and, since round 0 stopped shipping zero
// blocks, cost a sparse tensor only the extra next-offsets; ns/op and
// wire-B/op are read together. A change of default is a re-run of this.
func BenchmarkPacketShape(b *testing.B) {
	const workers = 2
	for _, fab := range []string{"chan", "udp"} {
		n := 1 << 20
		if fab == "udp" {
			n = 1 << 18
		}
		for _, s := range []float64{0, 0.99} {
			inputs := blockSparseInputs(workers, n, s, 1)
			for _, width := range []int{8, 16, 32} {
				for _, streams := range []int{4, 8} {
					name := fmt.Sprintf("%s/sparsity=%v/fusion=%d/streams=%d", fab, s, width, streams)
					b.Run(name, func(b *testing.B) {
						opts := Options{Workers: workers, FusionWidth: width, Streams: streams}
						if fab == "udp" {
							benchAllReduce(b, udpBenchCluster(b, opts), inputs)
							return
						}
						c, err := NewLocalCluster(opts)
						if err != nil {
							b.Fatal(err)
						}
						b.Cleanup(func() { c.Close() })
						benchAllReduce(b, clusterWorkers(c), inputs)
					})
				}
			}
		}
	}
}

// udpBenchCluster starts one aggregator and o.Workers workers on loopback
// UDP, every socket on an ephemeral port.
func udpBenchCluster(b *testing.B, o Options) []*Worker {
	b.Helper()
	agg, err := NewUDPAggregator(o.Workers, map[int]string{o.Workers: "127.0.0.1:0"}, o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { agg.Close() })
	go agg.Run()
	ws := make([]*Worker, o.Workers)
	for i := range ws {
		w, err := NewUDPWorker(i, map[int]string{i: "127.0.0.1:0", o.Workers: agg.Addr()}, o)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		if err := agg.RegisterPeer(i, w.Addr()); err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// BenchmarkAllReduceSparseLive is the key-value (Algorithm 3) rung of the
// live path: four workers, 1% of 256Ki keys each. MB/s counts one worker's
// pairs, 8 bytes each, as the dense rungs count one worker's tensor.
func BenchmarkAllReduceSparseLive(b *testing.B) {
	c := benchCluster(b, 4)
	rng := rand.New(rand.NewSource(3))
	ins := make([]*SparseTensor, 4)
	for w := range ins {
		dense := make([]float32, 1<<18)
		for i := range dense {
			if rng.Float64() < 0.01 {
				dense[i] = float32(rng.NormFloat64())
			}
		}
		ins[w] = FromDense(dense)
	}
	b.SetBytes(int64(8 * len(ins[0].Keys)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := c.Worker(w).AllReduceSparse(ins[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkMultiJobLive measures the multi-tenant service's multiplexing
// cost: the same total gradient volume pushed through one aggregator as
// a single job ("jobs=1", the plain single-job API) versus four
// concurrent jobs across two tenants ("jobs=4_tenants=2", each job
// carrying a quarter of the volume in its own tensor-ID namespace).
// bytes/sec is total reduced volume either way, so the delta between the
// sub-benchmarks is the price of namespace demultiplexing, admission
// checks, and scheduler interleaving (cmd/benchjson records both in
// BENCH_datapath.json).
func BenchmarkMultiJobLive(b *testing.B) {
	const workers = 2
	const n = 1 << 20
	b.Run("jobs=1", func(b *testing.B) {
		c := benchCluster(b, workers)
		inputs := benchInputs(workers, n, 0, 19)
		b.SetBytes(int64(4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := c.Worker(w).AllReduce(inputs[w]); err != nil {
						b.Error(err)
					}
				}(w)
			}
			wg.Wait()
		}
	})
	b.Run("jobs=4_tenants=2", func(b *testing.B) {
		c := benchCluster(b, workers)
		names := [][2]string{
			{"prod", "ranker"}, {"prod", "embedder"},
			{"research", "ablation-a"}, {"research", "ablation-b"},
		}
		jobs := make([][]*Job, len(names)) // [job][worker]
		for ji, nm := range names {
			jobs[ji] = make([]*Job, workers)
			for w := 0; w < workers; w++ {
				j, err := c.Worker(w).OpenJob(nm[0], nm[1])
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { j.Close() })
				jobs[ji][w] = j
			}
		}
		per := n / len(names)
		inputs := make([][][]float32, len(names))
		for ji := range inputs {
			inputs[ji] = benchInputs(workers, per, 0, int64(23+ji))
		}
		b.SetBytes(int64(4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for ji := range jobs {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(ji, w int) {
						defer wg.Done()
						if err := jobs[ji][w].AllReduce(inputs[ji][w]); err != nil {
							b.Error(err)
						}
					}(ji, w)
				}
			}
			wg.Wait()
		}
	})
}

// BenchmarkTracerOverhead measures what a live flight recorder costs a
// dense AllReduce: one cluster runs one round with no tracer installed
// (the one-atomic-load disabled path) and one with a flight recorder
// capturing every slot event, in turn, so that machine drift lands on
// both. ns/op is the median traced round; off-ns/op the median untraced
// one; tracer-x their ratio, which cmd/benchjson holds to at most 1.05 in
// make bench.
func BenchmarkTracerOverhead(b *testing.B) {
	const workers = 2
	c := benchCluster(b, workers)
	const n = 1 << 18
	inputs := benchInputs(workers, n, 0, 13)
	flight := obs.NewFlightRecorder(-1, obs.DefaultFlightEvents)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	round := func(tr obs.Tracer) time.Duration {
		obs.SetTracer(tr)
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := c.Worker(w).AllReduce(inputs[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
		return time.Since(t0)
	}
	for i := 0; i < 4; i++ {
		round(nil)
		round(flight)
	}
	off := make([]time.Duration, b.N)
	on := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off[i] = round(nil)
		on[i] = round(flight)
	}
	b.StopTimer()
	slices.Sort(off)
	slices.Sort(on)
	offMed, onMed := off[b.N/2], on[b.N/2]
	b.ReportMetric(float64(onMed.Nanoseconds()), "ns/op")
	b.ReportMetric(float64(offMed.Nanoseconds()), "off-ns/op")
	b.ReportMetric(float64(onMed)/float64(offMed), "tracer-x")
}

// BenchmarkAllReduceUDPLive measures the real protocol over loopback UDP
// sockets, one syscall per datagram; allocs/op isolates the
// persistent-pump zero-allocation win (cmd/benchjson records it in
// BENCH_datapath.json).
func BenchmarkAllReduceUDPLive(b *testing.B) {
	const workers = 2
	cfg := core.Config{
		Workers:           workers,
		Aggregators:       []int{workers},
		Streams:           4,
		BlockSize:         256,
		Reliable:          false,
		RetransmitTimeout: 20 * time.Millisecond,
	}
	aggUDP, err := transport.NewUDP(workers, map[int]string{workers: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	agg, err := core.NewAggregator(aggUDP, cfg)
	if err != nil {
		b.Fatal(err)
	}
	go agg.Run()
	b.Cleanup(func() { aggUDP.Close() })
	ws := make([]*core.Worker, workers)
	for i := 0; i < workers; i++ {
		wUDP, err := transport.NewUDP(i, map[int]string{
			i:       "127.0.0.1:0",
			workers: aggUDP.Addr(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := aggUDP.RegisterPeer(i, wUDP.Addr()); err != nil {
			b.Fatal(err)
		}
		w, err := core.NewWorker(wUDP, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		ws[i] = w
	}
	const n = 1 << 18
	inputs := benchInputs(workers, n, 0.9, 17)
	b.SetBytes(int64(4 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := ws[w].AllReduce(inputs[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkAllReduceTCPLive measures the real protocol over loopback TCP
// sockets (the cross-process reliable fabric).
func BenchmarkAllReduceTCPLive(b *testing.B) {
	const workers = 2
	opts := Options{Workers: workers, Streams: 4}
	addrs := map[int]string{}
	agg, err := NewTCPAggregator(workers, map[int]string{workers: "127.0.0.1:0"}, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { agg.Close() })
	go agg.Run()
	// The aggregator bound an ephemeral port; rebuild the address book.
	addrs[workers] = agg.Addr()
	ws := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		w, err := NewTCPWorker(i, map[int]string{i: "127.0.0.1:0", workers: addrs[workers]}, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		ws[i] = w
	}
	const n = 1 << 18
	inputs := benchInputs(workers, n, 0.9, 11)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := ws[w].AllReduce(inputs[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// failoverScenario runs one live chaos-kill handoff and returns its two
// latencies: detect (kill -> every worker has adopted the takeover view,
// i.e. traffic is flowing to the standby) and handoff (kill -> every
// in-flight collective completed). The kill fires only once the standby
// holds a checkpoint from the doomed primary, matching how an
// orchestrator would gate activation (Aggregator.CheckpointsFrom).
func failoverScenario(b *testing.B) (detect, handoff time.Duration) {
	b.Helper()
	const (
		W       = 2
		aggA    = 2
		aggB    = 3
		standby = 4
	)
	view1 := protocol.View{Epoch: 1, Workers: []int{0, 1}, Aggregators: []int{aggA, aggB}}
	cfg := core.Config{
		Workers:            W,
		Aggregators:        []int{aggA, aggB},
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          32,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  2 * time.Millisecond,
		View:               &view1,
	}
	nw := transport.NewNetwork(W, 4096)
	conns := map[int]transport.Conn{}
	var aggWG sync.WaitGroup
	startAgg := func(id int, c core.Config) *core.Aggregator {
		conn := nw.AddNode(id)
		conns[id] = conn
		a, err := core.NewAggregator(conn, c)
		if err != nil {
			b.Fatal(err)
		}
		aggWG.Add(1)
		go func() {
			defer aggWG.Done()
			if err := a.Run(); err != nil {
				b.Error(err)
			}
		}()
		return a
	}
	primCfg := cfg
	primCfg.CheckpointPeers = []int{standby}
	startAgg(aggA, primCfg)
	startAgg(aggB, primCfg)
	sbCfg := cfg
	sbCfg.Standby = true
	sb := startAgg(standby, sbCfg)

	workers := make([]*core.Worker, W)
	inputs := benchInputs(W, 1<<16, 0, 31)
	for w := range workers {
		wk, err := core.NewWorker(nw.Conn(w), cfg)
		if err != nil {
			b.Fatal(err)
		}
		workers[w] = wk
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := workers[w].AllReduce(inputs[w]); err != nil {
				b.Error(err)
			}
		}(w)
	}

	for sb.CheckpointsFrom(aggB) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	adoptions := obs.Default.Counter("worker_view_changes")
	adoptedBefore := adoptions.Load()
	t0 := time.Now()
	conns[aggB].Close() // kill
	if err := sb.Activate(protocol.View{Epoch: 2, Workers: []int{0, 1}, Aggregators: []int{aggA, standby}}); err != nil {
		b.Fatal(err)
	}
	for adoptions.Load()-adoptedBefore < W {
		time.Sleep(100 * time.Microsecond)
	}
	detect = time.Since(t0)
	wg.Wait()
	handoff = time.Since(t0)

	for _, wk := range workers {
		wk.Close()
	}
	for id, c := range conns {
		if id != aggB {
			c.Close()
		}
	}
	aggWG.Wait()
	return detect, handoff
}

// BenchmarkFailoverHandoff records the elastic-membership latencies in
// BENCH_datapath.json: "detect" is kill -> all workers bound to the
// takeover view, "handoff" is kill -> all mid-flight collectives
// completed (view adoption + rebind + replay + fast-forward resync).
// ns/op is the latency itself (ReportMetric overrides the loop timing).
func BenchmarkFailoverHandoff(b *testing.B) {
	b.Run("detect", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			d, _ := failoverScenario(b)
			total += d
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	})
	b.Run("handoff", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			_, h := failoverScenario(b)
			total += h
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	})
}

// BenchmarkCheckpointTax measures what having a standby costs when nothing
// fails: the same dense 1 Mi-element AllReduce on two channel-fabric
// clusters, one plain and one whose aggregator mirrors every committed
// result to a standby (the repository benchmark's dense_chan and
// checkpoint_chan), one round on each in turn so that machine drift lands
// on both. ns/op is the mirrored round; plain-ns/op the plain one; tax-x
// their ratio, which cmd/benchjson holds to at most 2 in make bench.
func BenchmarkCheckpointTax(b *testing.B) {
	const (
		W       = 2
		agg     = 2
		standby = 3
		n       = 1 << 20
	)
	cluster := func(mirrored bool) []*core.Worker {
		cfg := core.Config{Workers: W, Aggregators: []int{agg}, Reliable: true}
		nw := transport.NewNetwork(W, 4096)
		var conns []transport.Conn
		var wg sync.WaitGroup
		start := func(id int, c core.Config) {
			conn := nw.AddNode(id)
			conns = append(conns, conn)
			a, err := core.NewAggregator(conn, c)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.Run(); err != nil {
					b.Error(err)
				}
			}()
		}
		primCfg := cfg
		if mirrored {
			cfg.View = &protocol.View{Epoch: 1, Workers: []int{0, 1}, Aggregators: []int{agg}}
			primCfg = cfg
			primCfg.CheckpointPeers = []int{standby}
			sbCfg := cfg
			sbCfg.Standby = true
			start(standby, sbCfg)
		}
		start(agg, primCfg)
		ws := make([]*core.Worker, W)
		for w := range ws {
			wk, err := core.NewWorker(nw.Conn(w), cfg)
			if err != nil {
				b.Fatal(err)
			}
			ws[w] = wk
		}
		b.Cleanup(func() {
			for _, wk := range ws {
				wk.Close()
			}
			for _, c := range conns {
				c.Close()
			}
			wg.Wait()
		})
		return ws
	}
	inputs := benchInputs(W, n, 0, 5)
	work := make([][]float32, W)
	for w := range work {
		work[w] = make([]float32, n)
	}
	round := func(ws []*core.Worker) time.Duration {
		for w := range work {
			copy(work[w], inputs[w])
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range ws {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := ws[w].AllReduce(work[w]); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
		return time.Since(t0)
	}
	plain, mirrored := cluster(false), cluster(true)
	for i := 0; i < 4; i++ {
		round(plain)
		round(mirrored)
	}
	frames := obs.Default.Counter("agg_ck_frames_sent")
	before := frames.Load()
	var plainNs, mirroredNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plainNs += round(plain)
		mirroredNs += round(mirrored)
	}
	if frames.Load() == before {
		b.Fatal("the mirrored cluster mirrored nothing")
	}
	b.ReportMetric(float64(mirroredNs.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(plainNs.Nanoseconds())/float64(b.N), "plain-ns/op")
	b.ReportMetric(float64(mirroredNs)/float64(plainNs), "tax-x")
}
