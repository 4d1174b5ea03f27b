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

// benchAllReduce times b.N ops of r on inputs with the runner's method
// (exp.Runner.Time) and reports the parties' encoded bytes per op as
// wire-B/op. MB/s counts bytes per op.
func benchAllReduce(b *testing.B, r *exp.Runner, inputs [][]float32, bytes int64) {
	b.Helper()
	b.StopTimer()
	b.ResetTimer()
	b.SetBytes(bytes)
	c, err := r.Time(b, inputs, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.WireBytes)/float64(b.N), "wire-B/op")
}

// publicRunner runs the public API's AllReduce on ws.
func publicRunner(ws []*Worker) *exp.Runner {
	return &exp.Runner{
		Parties: len(ws),
		Op:      func(w int, data []float32) error { return ws[w].AllReduce(data) },
		Counts:  workerCounts(ws),
	}
}

// workerCounts sums what ws sent.
func workerCounts(ws []*Worker) func() exp.Counts {
	return func() (c exp.Counts) {
		for _, w := range ws {
			s := w.Stats()
			c.Blocks, c.WireBytes = c.Blocks+s.BlocksSent, c.WireBytes+s.BytesSent
		}
		return c
	}
}

func clusterWorkers(c *LocalCluster) []*Worker {
	ws := make([]*Worker, c.Size())
	for w := range ws {
		ws[w] = c.Worker(w)
	}
	return ws
}

// benchCurve times algo over the paper's curve (exp.LiveSparsities, the
// share of all-zero blocks) at each worker count, 1 Mi elements a worker,
// at protocol.Defaults()' shape; cmd/benchjson checks the curve.
func benchCurve(b *testing.B, algo exp.Algorithm, workers ...int) {
	for _, w := range workers {
		for _, s := range exp.LiveSparsities {
			b.Run(fmt.Sprintf("workers=%d/sparsity=%v", w, s), func(b *testing.B) {
				r, err := exp.NewRunner(algo, core.Config{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { r.Close() })
				benchAllReduce(b, r, exp.BlockSparseInputs(w, 1<<20, s, 7), 4<<20)
			})
		}
	}
}

// BenchmarkAllReduceLive is OmniReduce's series of the curve. The two
// comparators stop at 4 workers: AGsparse gathers every worker's whole
// tensor, 64 MB a worker per dense op at 8.
func BenchmarkAllReduceLive(b *testing.B)     { benchCurve(b, exp.OmniReduce, 2, 4, 8) }
func BenchmarkRingAllReduceLive(b *testing.B) { benchCurve(b, exp.Ring, 2, 4) }
func BenchmarkAGsparseLive(b *testing.B)      { benchCurve(b, exp.AGsparse, 2, 4) }

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
			inputs := exp.BlockSparseInputs(workers, n, s, 1)
			for _, width := range []int{8, 16, 32} {
				for _, streams := range []int{4, 8} {
					name := fmt.Sprintf("%s/sparsity=%v/fusion=%d/streams=%d", fab, s, width, streams)
					b.Run(name, func(b *testing.B) {
						opts := Options{Workers: workers, FusionWidth: width, Streams: streams}
						if fab == "udp" {
							benchAllReduce(b, publicRunner(udpBenchCluster(b, opts)), inputs, int64(4*n))
							return
						}
						c, err := NewLocalCluster(opts)
						if err != nil {
							b.Fatal(err)
						}
						b.Cleanup(func() { c.Close() })
						benchAllReduce(b, publicRunner(clusterWorkers(c)), inputs, int64(4*n))
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
	dense, ins := make([][]float32, 4), make([]*SparseTensor, 4)
	for w := range ins {
		dense[w] = make([]float32, 1<<18)
		for i := range dense[w] {
			if rng.Float64() < 0.01 {
				dense[w][i] = float32(rng.NormFloat64())
			}
		}
		ins[w] = FromDense(dense[w])
	}
	// Each op reduces ins[w], dense[w]'s pairs, drawn once before the timer.
	r := &exp.Runner{
		Parties: 4,
		Op: func(w int, _ []float32) error {
			_, err := c.Worker(w).AllReduceSparse(ins[w])
			return err
		},
		Counts: workerCounts(clusterWorkers(c)),
	}
	benchAllReduce(b, r, dense, int64(8*len(ins[0].Keys))) // one worker's pairs
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
		benchAllReduce(b, publicRunner(clusterWorkers(c)), benchInputs(workers, n, 0, 19), 4*n)
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
		var inputs [][]float32 // party p is job p/workers on worker p%workers
		for ji := range names {
			inputs = append(inputs, benchInputs(workers, n/len(names), 0, int64(23+ji))...)
		}
		r := &exp.Runner{
			Parties: len(inputs),
			Op:      func(p int, data []float32) error { return jobs[p/workers][p%workers].AllReduce(data) },
			Counts:  workerCounts(clusterWorkers(c)),
		}
		benchAllReduce(b, r, inputs, 4*n) // the total volume, as in jobs=1
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
	// The collector stays off, as in exp.Runner.Time: a collection in one
	// round and not its partner would land in the ratio.
	prevGC := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(prevGC) })
	const workers = 2
	c := benchCluster(b, workers)
	const n = 1 << 18
	inputs := benchInputs(workers, n, 0, 13)
	flight := obs.NewFlightRecorder(-1, obs.DefaultFlightEvents)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	r := publicRunner(clusterWorkers(c))
	round := func(tr obs.Tracer) time.Duration {
		obs.SetTracer(tr)
		t0 := time.Now()
		if err := r.Run(inputs); err != nil {
			b.Error(err)
		}
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
// sockets in unreliable mode (Algorithm 2, which the public UDP
// constructors select) at protocol.Defaults()' shape; allocs/op isolates
// the persistent-pump zero-allocation win (cmd/benchjson records it in
// BENCH_datapath.json).
func BenchmarkAllReduceUDPLive(b *testing.B) {
	b.ReportAllocs()
	benchAllReduce(b, publicRunner(udpBenchCluster(b, Options{Workers: 2})), benchInputs(2, 1<<18, 0.9, 17), 4<<18)
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
	benchAllReduce(b, publicRunner(ws), benchInputs(workers, 1<<18, 0.9, 11), 4<<18)
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
// result to a standby, one round on each in turn so that machine drift
// lands on both. It has a row per mode, because the modes commit different
// results: reliable (the repository benchmark's dense_chan and
// checkpoint_chan) mirrors a slot's final results only, versioned
// (Algorithm 2) every concluded round. ns/op is the mirrored round;
// plain-ns/op the plain one; tax-x their ratio, which cmd/benchjson holds
// to at most 2 in make bench, and the reliable row to at most 1.15.
func BenchmarkCheckpointTax(b *testing.B) {
	b.Run("reliable", func(b *testing.B) { benchCheckpointTax(b, true) })
	b.Run("versioned", func(b *testing.B) { benchCheckpointTax(b, false) })
}

func benchCheckpointTax(b *testing.B, reliable bool) {
	const (
		W       = 2
		agg     = 2
		standby = 3
		n       = 1 << 20
	)
	cluster := func(mirrored bool) *exp.Runner {
		cfg := core.Config{Workers: W, Aggregators: []int{agg}, Reliable: reliable}
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
		return &exp.Runner{Parties: W, Op: func(w int, data []float32) error { return ws[w].AllReduce(data) }}
	}
	inputs := benchInputs(W, n, 0, 5)
	work := make([][]float32, W)
	for w := range work {
		work[w] = make([]float32, n)
	}
	round := func(r *exp.Runner) time.Duration {
		for w := range work {
			copy(work[w], inputs[w])
		}
		t0 := time.Now()
		if err := r.Run(work); err != nil {
			b.Error(err)
		}
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
